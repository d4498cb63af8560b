/**
 * @file
 * Tests for on-stack replacement (DESIGN.md §14): the back-edge OSR
 * tables emitted by lowering, mid-loop variant flips through the
 * runtime (with cycle-exact Step-vs-Batch equivalence), decoded
 * superblock retirement on redirect, sandbox-differential state
 * equivalence at every OSR point, repeat-run identity of the hot-loop
 * fleet scenario, the entry-flip fallback for loop-free functions,
 * and one watch entry per function however often it is flipped.
 */

#include <gtest/gtest.h>

#include "codegen/lowering.h"
#include "fleet/fleet.h"
#include "ir/builder.h"
#include "pcc/pcc.h"
#include "runtime/runtime.h"
#include "sim/machine.h"
#include "validate/validator.h"
#include "workloads/batch.h"
#include "workloads/registry.h"

namespace protean {
namespace {

using ir::BlockId;
using ir::IRBuilder;
using ir::Reg;

// ---------------------------------------------------------------
// Back-edge table correctness across all mask depths.
// ---------------------------------------------------------------

/** Prefix NT mask of the given depth over the module's loads. */
BitVector
prefixMask(const ir::Module &m, size_t depth)
{
    BitVector mask(m.numLoads());
    for (size_t i = 0; i < depth && i < mask.size(); ++i)
        mask.set(i);
    return mask;
}

TEST(OsrTable, StableAcrossAllMaskDepths)
{
    // The hot-loop workload exercises nested loops, calls and
    // NT-maskable loads in every function.
    workloads::BatchSpec spec = workloads::batchSpec("hotloop");
    ir::Module m = workloads::buildBatch(spec);
    isa::Image img = pcc::compilePlain(m);

    size_t functions_with_loops = 0;
    for (ir::FuncId f = 0; f < m.numFunctions(); ++f) {
        codegen::LowerOptions opts;
        opts.layout = &img.layout;
        BitVector none = prefixMask(m, 0);
        opts.ntMask = &none;
        codegen::LoweredFunction base =
            codegen::lowerFunction(m, m.function(f), opts);
        if (!base.osrSites.empty())
            ++functions_with_loops;

        for (size_t depth = 1; depth <= m.numLoads(); ++depth) {
            BitVector mask = prefixMask(m, depth);
            opts.ntMask = &mask;
            codegen::LoweredFunction var =
                codegen::lowerFunction(m, m.function(f), opts);

            // Same loop structure in every variant: site count and
            // header ids match the unmasked lowering exactly.
            ASSERT_EQ(var.osrSites.size(), base.osrSites.size());
            ASSERT_EQ(var.blockStarts.size(),
                      base.blockStarts.size());
            for (size_t i = 0; i < var.osrSites.size(); ++i) {
                const codegen::OsrSite &s = var.osrSites[i];
                EXPECT_EQ(s.header, base.osrSites[i].header);
                ASSERT_LT(s.header, var.blockStarts.size());
                ASSERT_LT(s.offset, var.code.size());
                // The recorded pc is a branch whose taken target is
                // the loop header's first instruction, and it is a
                // *back* edge: the header precedes the branch.
                const isa::MInst &inst = var.code[s.offset];
                ASSERT_TRUE(inst.op == isa::MOp::Jmp ||
                            inst.op == isa::MOp::Bnz);
                EXPECT_EQ(inst.target,
                          var.blockStarts[s.header]);
                EXPECT_LE(var.blockStarts[s.header], s.offset);
            }
        }
    }
    // The scenario would be vacuous without loops to OSR into.
    EXPECT_GT(functions_with_loops, 0u);
}

// ---------------------------------------------------------------
// Runtime mid-loop flips.
// ---------------------------------------------------------------

/** Host whose hot() runs one practically-unbounded loop (two loads
 *  per iteration, result accumulates into a global): an entry-only
 *  flip of hot can never take effect inside a test window. */
ir::Module
makeLoopHost()
{
    ir::Module m("loophost");
    ir::GlobalId arr = m.addGlobal("arr", 1 << 16);
    ir::GlobalId out = m.addGlobal("out", 8);
    IRBuilder b(m);

    b.startFunction("hot", 0);
    Reg base = b.globalAddr(arr);
    Reg obase = b.globalAddr(out);
    Reg one = b.constInt(1);
    Reg n = b.constInt(1ll << 40);
    Reg mask = b.constInt((1 << 16) - 64);
    Reg i = b.constInt(0);
    Reg cur = b.constInt(0);
    Reg sum = b.constInt(0);
    Reg tmp = b.func().newReg();
    Reg x = b.func().newReg();
    b.func().noteReg(tmp);
    b.func().noteReg(x);
    BlockId loop = b.newBlock();
    BlockId done = b.newBlock();
    b.br(loop);
    b.setBlock(loop);
    b.binaryInto(tmp, ir::Opcode::And, cur, mask);
    b.binaryInto(tmp, ir::Opcode::Add, tmp, base);
    b.loadInto(x, tmp, 0);
    b.binaryInto(sum, ir::Opcode::Add, sum, x);
    b.loadInto(x, tmp, 64);
    b.binaryInto(sum, ir::Opcode::Add, sum, x);
    b.store(obase, sum);
    Reg stride = b.constInt(128);
    b.binaryInto(cur, ir::Opcode::Add, cur, stride);
    b.binaryInto(i, ir::Opcode::Add, i, one);
    Reg c = b.cmpLt(i, n);
    b.condBr(c, loop, done);
    b.setBlock(done);
    b.ret();

    b.startFunction("main", 0);
    BlockId loop2 = b.newBlock();
    b.br(loop2);
    b.setBlock(loop2);
    b.callVoid(0);
    b.br(loop2);
    return m;
}

/** Host whose hot() is loop-free (an if/else diamond keeps it
 *  multi-block, hence virtualized) and gets re-entered constantly
 *  from main's loop: the entry-flip fallback path. */
ir::Module
makeStraightHost()
{
    ir::Module m("straighthost");
    ir::GlobalId arr = m.addGlobal("arr", 1 << 12);
    ir::GlobalId out = m.addGlobal("out", 8);
    IRBuilder b(m);

    b.startFunction("hot", 0);
    Reg base = b.globalAddr(arr);
    Reg obase = b.globalAddr(out);
    Reg a = b.load(base, 0);
    Reg c = b.load(base, 64);
    BlockId bt = b.newBlock();
    BlockId bf = b.newBlock();
    BlockId join = b.newBlock();
    Reg cond = b.cmpLt(a, c);
    b.condBr(cond, bt, bf);
    b.setBlock(bt);
    b.store(obase, a);
    b.br(join);
    b.setBlock(bf);
    b.store(obase, c);
    b.br(join);
    b.setBlock(join);
    b.ret();

    b.startFunction("main", 0);
    BlockId loop = b.newBlock();
    b.br(loop);
    b.setBlock(loop);
    b.callVoid(0);
    b.br(loop);
    return m;
}

struct OsrRunResult
{
    uint64_t instructions = 0;
    uint64_t hints = 0;
    uint64_t codeVersion = 0;
    uint64_t osrPatches = 0;
    runtime::FlipEffectStats fe;
};

/** Deploy an all-NT variant of hot() mid-run under the given engine
 *  and OSR setting; return the observable outcome. */
OsrRunResult
runLoopScenario(sim::Engine engine, bool osr)
{
    ir::Module m = makeLoopHost();
    isa::Image image = pcc::compile(m);
    sim::Machine machine;
    machine.setEngine(engine);
    sim::Process &proc = machine.load(image, 0);
    runtime::RuntimeOptions opts;
    opts.runtimeCore = 1;
    opts.osr = osr;
    runtime::ProteanRuntime rt(machine, proc, opts);
    rt.start();
    machine.runFor(machine.msToCycles(20));
    EXPECT_EQ(machine.core(0).hpm().hints, 0u);

    ir::FuncId hot = rt.module().findFunction("hot")->id();
    BitVector mask(rt.module().numLoads(), true);
    rt.deployVariant(hot, mask);
    machine.runFor(machine.msToCycles(100));

    OsrRunResult r;
    r.instructions = machine.core(0).hpm().instructions;
    r.hints = machine.core(0).hpm().hints;
    r.codeVersion = proc.codeVersion();
    r.osrPatches = rt.osrPatchesWritten();
    r.fe = rt.flipEffectStats(machine.now());
    return r;
}

TEST(OsrFlip, MidLoopFlipExecutesNewVariant)
{
    // Control: entry-only. hot never returns, so the flip stays
    // pending and the host never executes a hint instruction.
    OsrRunResult off = runLoopScenario(sim::Engine::Batch, false);
    EXPECT_EQ(off.hints, 0u);
    EXPECT_EQ(off.fe.osrFlips, 0u);
    EXPECT_EQ(off.fe.entryFlips, 0u);
    EXPECT_EQ(off.fe.pending, 1u);
    EXPECT_EQ(off.osrPatches, 0u);

    // OSR: the same flip lands at the next back-edge — the variant
    // executes (hints retire) on the very next loop iteration.
    OsrRunResult on = runLoopScenario(sim::Engine::Batch, true);
    EXPECT_GT(on.hints, 0u);
    EXPECT_EQ(on.fe.osrFlips, 1u);
    EXPECT_EQ(on.fe.entryFlips, 0u);
    EXPECT_EQ(on.fe.pending, 0u);
    EXPECT_GT(on.osrPatches, 0u);
    // And it lands orders of magnitude faster than the censored
    // pending latency of the control.
    EXPECT_LT(on.fe.worstOsr, off.fe.worstPending / 10);
}

TEST(OsrFlip, StepVsBatchCycleExact)
{
    OsrRunResult step = runLoopScenario(sim::Engine::Step, true);
    OsrRunResult batch = runLoopScenario(sim::Engine::Batch, true);
    EXPECT_EQ(step.instructions, batch.instructions);
    EXPECT_EQ(step.hints, batch.hints);
    EXPECT_EQ(step.osrPatches, batch.osrPatches);
    EXPECT_EQ(step.fe.osrFlips, batch.fe.osrFlips);
    EXPECT_EQ(step.fe.worstOsr, batch.fe.worstOsr);
    EXPECT_EQ(step.fe.worstEntry, batch.fe.worstEntry);
}

TEST(OsrFlip, RedirectRetiresDecodedSuperblocks)
{
    // The Batch engine caches decoded superblocks keyed on the
    // process codeVersion; every osrRedirect patch must bump it so
    // stale blocks retire instead of executing the old branch.
    OsrRunResult off = runLoopScenario(sim::Engine::Batch, false);
    OsrRunResult on = runLoopScenario(sim::Engine::Batch, true);
    EXPECT_GT(on.codeVersion, off.codeVersion);
    EXPECT_GE(on.codeVersion - off.codeVersion, on.osrPatches);
    // Post-retirement execution is the variant's: hints retire.
    EXPECT_GT(on.hints, 0u);
}

TEST(OsrFlip, LoopFreeFunctionFallsBackToEntryFlip)
{
    ir::Module m = makeStraightHost();
    isa::Image image = pcc::compile(m);
    sim::Machine machine;
    sim::Process &proc = machine.load(image, 0);
    runtime::RuntimeOptions opts;
    opts.runtimeCore = 1;
    opts.osr = true;
    runtime::ProteanRuntime rt(machine, proc, opts);
    rt.start();
    machine.runFor(machine.msToCycles(20));

    ir::FuncId hot = rt.module().findFunction("hot")->id();
    EXPECT_EQ(rt.compiler().osrSiteCount(hot), 0u);

    BitVector mask(rt.module().numLoads(), true);
    rt.deployVariant(hot, mask);
    machine.runFor(machine.msToCycles(100));

    // No back-edges to patch: the flip takes effect at the next
    // re-entry from main's call loop instead.
    runtime::FlipEffectStats fe =
        rt.flipEffectStats(machine.now());
    EXPECT_EQ(fe.osrFlips, 0u);
    EXPECT_EQ(fe.entryFlips, 1u);
    EXPECT_EQ(fe.pending, 0u);
    EXPECT_EQ(rt.osrPatchesWritten(), 0u);
    EXPECT_GT(machine.core(0).hpm().hints, 0u);
}

/** What a run of flips that never take effect leaves behind. */
struct PileUp
{
    runtime::FlipEffectStats fe;
    size_t watchedFunctions = 0;
    uint64_t hints = 0;
};

/** Flip the loop host's never-returning hot() `flips` times without
 *  OSR, alternating between two variants: no flip can take effect. */
PileUp
runPileUp(sim::Engine engine, uint32_t flips)
{
    ir::Module m = makeLoopHost();
    isa::Image image = pcc::compile(m);
    sim::Machine machine;
    machine.setEngine(engine);
    sim::Process &proc = machine.load(image, 0);
    runtime::RuntimeOptions opts;
    opts.runtimeCore = 1;
    runtime::ProteanRuntime rt(machine, proc, opts);
    rt.start();
    machine.runFor(machine.msToCycles(20));

    ir::FuncId hot = rt.module().findFunction("hot")->id();
    BitVector both(rt.module().numLoads(), true);
    BitVector first(rt.module().numLoads());
    first.set(0);
    for (uint32_t i = 0; i < flips; ++i) {
        rt.deployVariant(hot, i % 2 ? first : both);
        // The first two compile; every later one hits the cache and
        // dispatches at once, while hot() keeps looping.
        machine.runFor(i < 2 ? machine.msToCycles(20) : 1000);
    }

    PileUp r;
    r.fe = rt.flipEffectStats(machine.now());
    r.watchedFunctions = machine.core(0).watchedFunctionCount();
    r.hints = machine.core(0).hpm().hints;
    return r;
}

TEST(OsrFlip, RepeatedFlipsOfOneFunctionHoldOneWatchEntry)
{
    constexpr uint32_t kFlips = 2000;
    PileUp step = runPileUp(sim::Engine::Step, kFlips);
    PileUp batch = runPileUp(sim::Engine::Batch, kFlips);
    EXPECT_EQ(batch.fe.pending, kFlips);
    EXPECT_EQ(batch.fe.entryFlips, 0u);
    EXPECT_EQ(batch.fe.osrFlips, 0u);
    EXPECT_GT(batch.fe.worstPending, 0u);
    EXPECT_EQ(batch.hints, 0u);
    // Two thousand pending watches, one watched function.
    EXPECT_EQ(batch.watchedFunctions, 1u);
    EXPECT_EQ(step.watchedFunctions, batch.watchedFunctions);
    EXPECT_EQ(step.fe.entryFlips, batch.fe.entryFlips);
    EXPECT_EQ(step.fe.osrFlips, batch.fe.osrFlips);
    EXPECT_EQ(step.fe.pending, batch.fe.pending);
    EXPECT_EQ(step.fe.worstEntry, batch.fe.worstEntry);
    EXPECT_EQ(step.fe.worstOsr, batch.fe.worstOsr);
    EXPECT_EQ(step.fe.worstPending, batch.fe.worstPending);
}

// ---------------------------------------------------------------
// Sandbox-differential equivalence at every OSR point.
// ---------------------------------------------------------------

/** A virtualized kernel with a data-dependent loop and NT-maskable
 *  loads: the osrCheck subject. */
struct LoopProgram
{
    ir::Module module{"osrval"};
    ir::GlobalId buf;
    ir::FuncId kernel = ir::kInvalidId;
    isa::Image image;
    codegen::VirtualizationMap slots;

    LoopProgram() : buf(module.addGlobal("buf", 128))
    {
        IRBuilder b(module);
        ir::Function &kf = b.startFunction("kernel", 1);
        kernel = kf.id();
        Reg n{0};
        Reg base = b.globalAddr(buf);
        Reg one = b.constInt(1);
        Reg seven = b.constInt(7);
        Reg eight = b.constInt(8);
        Reg i = b.constInt(0);
        Reg sum = b.constInt(0);
        Reg idx = b.func().newReg();
        Reg addr = b.func().newReg();
        Reg x = b.func().newReg();
        b.func().noteReg(idx);
        b.func().noteReg(addr);
        b.func().noteReg(x);
        BlockId loop = b.newBlock();
        BlockId done = b.newBlock();
        b.br(loop);
        b.setBlock(loop);
        b.binaryInto(idx, ir::Opcode::Add, i, n);
        b.binaryInto(idx, ir::Opcode::And, idx, seven);
        b.binaryInto(addr, ir::Opcode::Mul, idx, eight);
        b.binaryInto(addr, ir::Opcode::Add, addr, base);
        b.loadInto(x, addr, 0);
        b.binaryInto(sum, ir::Opcode::Add, sum, x);
        b.store(addr, sum, 64);
        b.binaryInto(i, ir::Opcode::Add, i, one);
        Reg c = b.cmpLt(i, eight);
        b.condBr(c, loop, done);
        b.setBlock(done);
        b.ret(sum);

        b.startFunction("main", 0);
        b.callVoid(kernel, {b.constInt(5)});
        b.ret();

        image = pcc::compile(module);
        slots = pcc::chooseVirtualizedCallees(
            module, pcc::EdgePolicy::MultiBlockCallees);
    }
};

TEST(OsrCheck, StateEquivalentAtEveryOsrPoint)
{
    LoopProgram p;
    validate::Validator v(p.module, p.image, p.slots,
                          validate::ValidateConfig{});
    for (size_t depth = 0; depth <= p.module.numLoads(); ++depth) {
        BitVector mask(p.module.numLoads());
        for (size_t i = 0; i < depth; ++i)
            mask.set(i);
        uint64_t steps = 0;
        std::string reason;
        EXPECT_TRUE(v.osrCheck(p.kernel, mask, &steps, &reason))
            << "depth " << depth << ": " << reason;
        // The kernel has loops, so the check actually executed
        // flipped runs rather than early-returning.
        EXPECT_GT(steps, 0u) << "depth " << depth;
    }
}

// ---------------------------------------------------------------
// Hot-loop fleet scenario: repeat-run identity.
// ---------------------------------------------------------------

fleet::FleetStats
runHotloopFleet()
{
    fleet::FleetConfig cfg;
    cfg.numServers = 4;
    cfg.batch = "hotloop";
    cfg.hotFuncsOnly = true;
    cfg.remoteBackend = true;
    cfg.seed = 7;
    cfg.osr = true;
    fleet::FleetSim sim(cfg);
    sim.run(150.0);
    return sim.stats();
}

TEST(OsrFleet, RepeatRunsIdentical)
{
    fleet::FleetStats first = runHotloopFleet();
    fleet::FleetStats again = runHotloopFleet();
    // The scenario exercises the OSR path.
    EXPECT_GT(first.osrFlips, 0u);
    EXPECT_EQ(first.entryFlips, 0u);
    // Identical observable state on a repeat run.
    EXPECT_EQ(first.deployRequests, again.deployRequests);
    EXPECT_EQ(first.hostBranches, again.hostBranches);
    EXPECT_EQ(first.entryFlips, again.entryFlips);
    EXPECT_EQ(first.osrFlips, again.osrFlips);
    EXPECT_EQ(first.pendingFlips, again.pendingFlips);
    EXPECT_EQ(first.worstEntryFlip, again.worstEntryFlip);
    EXPECT_EQ(first.worstOsrFlip, again.worstOsrFlip);
    EXPECT_EQ(first.worstPendingFlip, again.worstPendingFlip);
    EXPECT_EQ(first.osrRedirects, again.osrRedirects);
    EXPECT_EQ(first.osrPatches, again.osrPatches);
    EXPECT_EQ(first.service.compiles, again.service.compiles);
    EXPECT_EQ(first.service.requests, again.service.requests);
}

} // namespace
} // namespace protean
