/**
 * @file
 * Tests for the tier-2 sandbox's own contract (DESIGN.md §12): every
 * typed trap on a hand-built program, with its trap pc and every
 * count of the fingerprint pinned; the OSR-flip model; the data
 * segment's bounds at the top of the address space; and Sandbox≡Core
 * over every batch workload in the registry, plain and protean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "isa/image.h"
#include "pcc/pcc.h"
#include "sim/machine.h"
#include "validate/sandbox.h"
#include "workloads/batch.h"
#include "workloads/registry.h"

namespace protean {
namespace validate {
namespace {

using isa::CodeAddr;
using isa::MInst;
using isa::MOp;

MInst
inst(MOp op, uint8_t rd = 0, uint8_t rs1 = 0, uint8_t rs2 = 0,
     int64_t imm = 0)
{
    MInst in;
    in.op = op;
    in.rd = rd;
    in.rs1 = rs1;
    in.rs2 = rs2;
    in.imm = imm;
    return in;
}

MInst
konst(uint8_t rd, int64_t imm)
{
    return inst(MOp::Const, rd, 0, 0, imm);
}

MInst
load(uint8_t rd, uint8_t base, int64_t off)
{
    return inst(MOp::Load, rd, base, 0, off);
}

MInst
store(uint8_t base, uint8_t value, int64_t off)
{
    return inst(MOp::Store, 0, base, value, off);
}

MInst
branch(MOp op, CodeAddr target, uint8_t cond = 0)
{
    MInst in = inst(op, 0, cond);
    in.target = target;
    return in;
}

MInst
callEvt(uint32_t slot)
{
    MInst in = inst(MOp::CallIndirect);
    in.evtSlot = slot;
    return in;
}

/** A one-function image around hand-written code: the 48-byte
 *  header, then one EVT slot per `evt` entry. */
isa::Image
handImage(std::vector<MInst> code, std::vector<CodeAddr> evt = {})
{
    isa::Image im;
    im.name = "hand";
    im.code = std::move(code);
    im.functions.push_back(
        {"main", 0, 0, static_cast<CodeAddr>(im.code.size())});
    im.entryFunc = 0;
    im.evtBase = isa::kHdrBytes;
    im.evtCount = static_cast<uint32_t>(evt.size());
    im.initialData.assign(isa::kHdrBytes + 8 * evt.size(), 0);
    for (size_t i = 0; i < evt.size(); ++i)
        im.setInitialWord(im.evtBase + 8 * i, evt[i]);
    return im;
}

SandboxResult
runBox(const isa::Image &im, uint64_t budget = 1000,
       const OsrFlip *flip = nullptr)
{
    Sandbox box(im);
    return box.run(im.code, im.entryPoint(), {0, 0, 0, 0}, budget,
                   flip);
}

// ---------------------------------------------------------------- //
//                           Typed traps                            //
// ---------------------------------------------------------------- //

TEST(SandboxTrap, WildPc)
{
    isa::Image im = handImage({konst(4, 7), branch(MOp::Jmp, 9)});
    SandboxResult r = runBox(im);
    EXPECT_EQ(r.trap, Trap::WildPc);
    EXPECT_EQ(r.trapPc, 9u);
    EXPECT_EQ(r.fingerprint(),
              "trap=wild-pc steps=2 loads=0 stores=0 branches=1 "
              "writes=0/cbf29ce484222325 regs=f537920e1c0d34a2");
    EXPECT_EQ(r.regs[4], 7u);
}

TEST(SandboxTrap, UnpatchedCall)
{
    isa::Image im = handImage({konst(4, 1),
                               branch(MOp::CallDirect,
                                      isa::kInvalidCodeAddr),
                               inst(MOp::Halt)});
    SandboxResult r = runBox(im);
    EXPECT_EQ(r.trap, Trap::UnpatchedCall);
    EXPECT_EQ(r.trapPc, 1u);
    EXPECT_EQ(r.fingerprint(),
              "trap=unpatched-call steps=2 loads=0 stores=0 "
              "branches=1 writes=0/cbf29ce484222325 "
              "regs=a57e092b075d43a4");
}

TEST(SandboxTrap, WildEvtSlotStillCountsTheCall)
{
    // Slot 0 dispatches to a leaf that returns; slot 1 is past the
    // one-slot EVT.
    isa::Image im = handImage(
        {callEvt(0), callEvt(1), inst(MOp::Halt), inst(MOp::Ret)},
        {3});
    SandboxResult r = runBox(im);
    EXPECT_EQ(r.trap, Trap::WildEvtSlot);
    EXPECT_EQ(r.trapPc, 1u);
    EXPECT_EQ(r.fingerprint(),
              "trap=wild-evt-slot steps=3 loads=0 stores=0 "
              "branches=3 writes=0/cbf29ce484222325 "
              "regs=7da144b97d054b25");
}

TEST(SandboxTrap, UnalignedLoad)
{
    isa::Image im = handImage({konst(5, 12), store(5, 5, -4),
                               load(6, 5, 0), inst(MOp::Halt)});
    SandboxResult r = runBox(im);
    EXPECT_EQ(r.trap, Trap::Unaligned);
    EXPECT_EQ(r.trapPc, 2u);
    EXPECT_EQ(r.fingerprint(),
              "trap=unaligned steps=3 loads=0 stores=1 branches=0 "
              "writes=1/8c4f798d7670ace1 regs=f565113356e890a9");
    EXPECT_EQ(r.regs[6], 0u); // the trapped load wrote nothing
}

TEST(SandboxTrap, UnalignedStore)
{
    isa::Image im = handImage({konst(5, 16), load(6, 5, 0),
                               store(5, 6, 3), inst(MOp::Halt)});
    SandboxResult r = runBox(im);
    EXPECT_EQ(r.trap, Trap::Unaligned);
    EXPECT_EQ(r.trapPc, 2u);
    EXPECT_EQ(r.fingerprint(),
              "trap=unaligned steps=3 loads=1 stores=0 branches=0 "
              "writes=0/cbf29ce484222325 regs=5cb076a0e4926135");
    EXPECT_EQ(r.writeCount, 0u);
}

TEST(SandboxTrap, StepBudgetExcludesHints)
{
    // Budget 2: the hint between the two budgeted steps, and the one
    // right before the cut, both run without counting.
    isa::Image im = handImage({konst(4, 1), inst(MOp::Hint),
                               konst(5, 2), inst(MOp::Hint),
                               konst(6, 3), inst(MOp::Halt)});
    SandboxResult r = runBox(im, 2);
    EXPECT_EQ(r.trap, Trap::StepBudget);
    EXPECT_EQ(r.trapPc, 4u);
    EXPECT_EQ(r.fingerprint(),
              "trap=step-budget steps=2 loads=0 stores=0 branches=0 "
              "writes=0/cbf29ce484222325 regs=615fef67f44ee666");
    EXPECT_EQ(r.hints, 2u);
    EXPECT_EQ(r.regs[5], 2u);
    EXPECT_EQ(r.regs[6], 0u);
}

TEST(SandboxTrap, CallDepthAtLimit)
{
    // Unbounded self-recursion: each level adds one to r4 and calls
    // itself; the call that would push frame kMaxCallDepth + 1 traps.
    isa::Image im = handImage({konst(5, 1),
                               inst(MOp::Add, 4, 4, 5),
                               branch(MOp::CallDirect, 1)});
    SandboxResult r = runBox(im, 1'000'000);
    EXPECT_EQ(r.trap, Trap::CallDepth);
    EXPECT_EQ(r.trapPc, 2u);
    EXPECT_EQ(r.fingerprint(),
              "trap=call-depth steps=1027 loads=0 stores=0 "
              "branches=513 writes=0/cbf29ce484222325 "
              "regs=57559f02eff574fb");
    EXPECT_EQ(r.branches, Sandbox::kMaxCallDepth + 1);
    EXPECT_EQ(r.regs[4], Sandbox::kMaxCallDepth + 1);
}

// ---------------------------------------------------------------- //
//                             OSR flip                             //
// ---------------------------------------------------------------- //

TEST(SandboxOsrFlip, RedirectLandsOnTheNthTakenTransfer)
{
    // A loop counting r4 to 10; its back-edge Bnz at pc 4 is taken 9
    // times. The flip's destination counts each redirected transfer
    // in r8 and rejoins the loop head.
    isa::Image im = handImage({konst(5, 1), konst(7, 10),
                               inst(MOp::Add, 4, 4, 5),
                               inst(MOp::CmpLt, 6, 4, 7),
                               branch(MOp::Bnz, 2, 6),
                               inst(MOp::Halt),
                               inst(MOp::Add, 8, 8, 5),
                               branch(MOp::Jmp, 2)});
    SandboxResult plain = runBox(im);
    EXPECT_EQ(plain.trap, Trap::None);
    EXPECT_EQ(plain.fingerprint(),
              "trap=none steps=33 loads=0 stores=0 branches=10 "
              "writes=0/cbf29ce484222325 regs=e20d02c512a05984");

    OsrFlip flip;
    flip.pc = 4;
    flip.dest = 6;
    flip.afterExecutions = 3;
    SandboxResult r = runBox(im, 1000, &flip);
    EXPECT_EQ(r.trap, Trap::None);
    EXPECT_EQ(r.trapPc, isa::kInvalidCodeAddr);
    EXPECT_EQ(r.fingerprint(),
              "trap=none steps=45 loads=0 stores=0 branches=16 "
              "writes=0/cbf29ce484222325 regs=6e9f45c8d303cb82");
    // Taken transfers 0..2 keep the encoded target; 3..8 land on dest.
    EXPECT_EQ(r.regs[8], 9u - 3u);

    flip.afterExecutions = 0;
    EXPECT_EQ(runBox(im, 1000, &flip).regs[8], 9u);
    // A redirect that never lands leaves the run as it was.
    flip.afterExecutions = 9;
    EXPECT_EQ(runBox(im, 1000, &flip).fingerprint(), plain.fingerprint());
}

// ---------------------------------------------------------------- //
//                         Data-segment bounds                      //
// ---------------------------------------------------------------- //

TEST(SandboxBounds, LoadAtTopOfAddressSpaceReadsZeroLikeTheCore)
{
    // r5 + 0 = 2^64 - 8. A bound written `addr + 8 <= size` wraps to
    // 0 there and lets the read in, 8 bytes before the data segment.
    isa::Image im = handImage({konst(6, 5), konst(5, -8), load(6, 5, 0),
                               inst(MOp::Halt)});
    sim::Machine machine;
    machine.load(im, 0);
    machine.runToCompletion(1'000'000);
    ASSERT_TRUE(machine.allHalted());
    EXPECT_EQ(machine.core(0).reg(6), 0u);

    SandboxResult r = runBox(im);
    EXPECT_EQ(r.trap, Trap::None);
    EXPECT_EQ(r.loads, 1u);
    EXPECT_EQ(r.regs[6], 0u);
}

// ---------------------------------------------------------------- //
//                  Sandbox ≡ Core over the registry                //
// ---------------------------------------------------------------- //

/** One registry workload, compiled plain or protean. */
struct RegistryBuild
{
    std::string workload;
    bool protean = false;
};

std::vector<RegistryBuild>
registryBuilds()
{
    std::vector<std::string> names = workloads::specBenchmarkNames();
    for (const std::string &n : workloads::contentiousBatchNames()) {
        if (std::find(names.begin(), names.end(), n) == names.end())
            names.push_back(n);
    }
    std::vector<RegistryBuild> builds;
    for (const std::string &n : names) {
        builds.push_back({n, false});
        builds.push_back({n, true});
    }
    return builds;
}

/** Test ids name the build, e.g. ("bzip2", protean). */
void
PrintTo(const RegistryBuild &b, std::ostream *os)
{
    *os << "(\"" << b.workload << "\", "
        << (b.protean ? "protean" : "plain") << ")";
}

class SandboxMatchesCore : public ::testing::TestWithParam<RegistryBuild>
{};

TEST_P(SandboxMatchesCore, OverTwoMillionSteps)
{
    // 2M steps reach past the store-only set-up loops some workloads
    // start with, so every build issues loads.
    constexpr uint64_t kSteps = 2'000'000;
    ir::Module m =
        workloads::buildBatch(workloads::batchSpec(GetParam().workload));
    isa::Image image =
        GetParam().protean ? pcc::compile(m) : pcc::compilePlain(m);
    if (GetParam().protean) {
        EXPECT_TRUE(std::any_of(
            image.code.begin(), image.code.end(),
            [](const MInst &in) { return in.op == MOp::CallIndirect; }));
    }

    Sandbox box(image);
    SandboxResult r =
        box.run(image.code, image.entryPoint(), {0, 0, 0, 0}, kSteps);
    // Batch workloads never halt: the budget ends the run.
    ASSERT_EQ(r.trap, Trap::StepBudget);

    // The core runs the same non-hint instructions, then the hints
    // the sandbox ran before the instruction it cut at.
    sim::Machine machine;
    sim::Process &proc = machine.load(image, 0);
    sim::Core &core = machine.core(0);
    while (core.hpm().instructions - core.hpm().hints < r.steps)
        core.step();
    while (proc.inst(core.pc()).op == MOp::Hint)
        core.step();

    const sim::HpmCounters &hpm = core.hpm();
    EXPECT_EQ(core.pc(), r.trapPc);
    EXPECT_EQ(r.steps + r.hints, hpm.instructions);
    EXPECT_EQ(r.hints, hpm.hints);
    EXPECT_EQ(r.loads, hpm.loads);
    EXPECT_EQ(r.stores, hpm.stores);
    EXPECT_EQ(r.branches, hpm.branches);
    for (uint32_t i = 0; i < isa::kNumMachineRegs; ++i)
        EXPECT_EQ(r.regs[i], core.reg(i)) << "r" << i;
    EXPECT_GT(r.loads, 0u);
    EXPECT_GT(r.stores, 0u);
}

INSTANTIATE_TEST_SUITE_P(Registry, SandboxMatchesCore,
                         ::testing::ValuesIn(registryBuilds()));

} // namespace
} // namespace validate
} // namespace protean
