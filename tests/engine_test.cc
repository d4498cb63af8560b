/**
 * @file
 * Execution-engine equivalence suite (DESIGN.md §8).
 *
 * The horizon-batched engine is a pure host-side optimization: every
 * simulated observable must match the reference Step engine exactly.
 * These tests pin that down — per-core HPM counter files, cache
 * stats, event ordering, and byte-identical metrics exports — plus
 * repeat-run identity of whole fleets and unit tests for the movable
 * event heap and the MRU-way cache shortcut the fast path relies
 * on.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "ir/builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pcc/pcc.h"
#include "sim/cache.h"
#include "sim/event_heap.h"
#include "sim/machine.h"
#include "workloads/registry.h"

namespace protean {
namespace sim {
namespace {

/** Process-wide engine default is test-visible state; pin it. */
class EngineTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_ = defaultEngine();
        obs::metrics().reset();
        obs::tracer().clear();
    }

    void
    TearDown() override
    {
        setDefaultEngine(saved_);
        obs::tracer().clear();
        obs::metrics().reset();
    }

  private:
    Engine saved_ = Engine::Batch;
};

TEST(EventHeap, PopsInCycleOrder)
{
    EventHeap h;
    std::vector<uint64_t> fired;
    uint64_t seq = 0;
    for (uint64_t c : {50u, 10u, 40u, 20u, 30u})
        h.push({c, seq++, [&fired, c] { fired.push_back(c); }});
    EXPECT_EQ(h.size(), 5u);
    while (!h.empty())
        h.pop().fn();
    EXPECT_EQ(fired, (std::vector<uint64_t>{10, 20, 30, 40, 50}));
}

TEST(EventHeap, SameCycleFiresInSchedulingOrder)
{
    // All entries share a cycle: seq (scheduling order) breaks the
    // tie, so the calendar stays deterministic.
    EventHeap h;
    std::vector<int> fired;
    for (int i = 0; i < 8; ++i)
        h.push({100, static_cast<uint64_t>(i),
                [&fired, i] { fired.push_back(i); }});
    while (!h.empty())
        h.pop().fn();
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

/** Counts copy-constructions of a lambda capture. */
struct CopyCounter
{
    int *copies;
    explicit CopyCounter(int *c) : copies(c) {}
    CopyCounter(const CopyCounter &o) : copies(o.copies)
    {
        ++*copies;
    }
    CopyCounter(CopyCounter &&o) noexcept : copies(o.copies) {}
};

TEST(EventHeap, PopMovesCallbackOut)
{
    // The point of replacing priority_queue (whose const top()
    // forced copying the callback out before popping): callbacks
    // move through push, sift and pop without a single copy of
    // their captured state.
    EventHeap h;
    int copies = 0;
    h.push({5, 0, [c = CopyCounter(&copies)] { (void)c; }});
    h.push({1, 1, [] {}});
    h.push({9, 2, [c = CopyCounter(&copies)] { (void)c; }});
    h.pop().fn();                 // cycle 1
    EventHeap::Entry e = h.pop(); // cycle 5
    e.fn();
    h.pop().fn(); // cycle 9
    EXPECT_EQ(copies, 0);
    EXPECT_TRUE(h.empty());
}

TEST(EventHeap, InterleavedPushPop)
{
    EventHeap h;
    uint64_t seq = 0;
    std::vector<uint64_t> fired;
    auto add = [&](uint64_t c) {
        h.push({c, seq++, [&fired, c] { fired.push_back(c); }});
    };
    add(30);
    add(10);
    h.pop().fn(); // 10
    add(20);
    add(5);
    h.pop().fn(); // 5
    h.pop().fn(); // 20
    add(1);
    while (!h.empty())
        h.pop().fn();
    EXPECT_EQ(fired, (std::vector<uint64_t>{10, 5, 20, 1, 30}));
}

ir::Module
spinModule(const std::string &name = "spin")
{
    ir::Module m(name);
    ir::IRBuilder b(m);
    b.startFunction("main", 0);
    ir::BlockId loop = b.newBlock();
    ir::Reg one = b.constInt(1);
    ir::Reg acc = b.constInt(0);
    b.br(loop);
    b.setBlock(loop);
    b.binaryInto(acc, ir::Opcode::Add, acc, one);
    b.br(loop);
    return m;
}

/** A looping strided walker over `bytes` of data (misses in the
 *  memory hierarchy, unlike the spin loop). */
ir::Module
walkerModule(uint64_t bytes, const std::string &name,
             int64_t stride_bytes = 64)
{
    ir::Module m(name);
    ir::IRBuilder b(m);
    ir::GlobalId g = m.addGlobal("a", bytes + 4096);
    b.startFunction("main", 0);
    ir::Reg base = b.globalAddr(g);
    ir::Reg mask = b.constInt(static_cast<int64_t>(bytes - 64));
    ir::Reg stride = b.constInt(stride_bytes);
    ir::Reg cur = b.constInt(0);
    ir::Reg x = b.func().newReg();
    ir::Reg addr = b.func().newReg();
    b.func().noteReg(x);
    b.func().noteReg(addr);
    ir::BlockId loop = b.newBlock();
    b.br(loop);
    b.setBlock(loop);
    b.binaryInto(addr, ir::Opcode::And, cur, mask);
    b.binaryInto(addr, ir::Opcode::Add, addr, base);
    b.loadInto(x, addr);
    b.binaryInto(cur, ir::Opcode::Add, cur, stride);
    b.br(loop);
    return m;
}

void
expectHpmEq(const HpmCounters &a, const HpmCounters &b, uint32_t core)
{
    SCOPED_TRACE("core " + std::to_string(core));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.nappedCycles, b.nappedCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.hints, b.hints);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l3Accesses, b.l3Accesses);
    EXPECT_EQ(a.l3Misses, b.l3Misses);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.stolenCycles, b.stolenCycles);
}

/** Everything one engine run can observe. */
struct RunRecord
{
    uint64_t now = 0;
    std::vector<HpmCounters> hpm;
    uint64_t l3Misses = 0;
    uint64_t dramAccesses = 0;
    std::vector<int> eventLog;
    std::string metricsJson;
};

/**
 * Drive `images[i]` on core i under `engine`, in uneven runFor
 * chunks (so until-cycle horizons land mid-stream), with mid-run
 * scheduled events that perturb core timing (stolen cycles, naps) —
 * the interleavings the batch engine must not reorder.
 */
RunRecord
runEngine(Engine engine, const std::vector<const isa::Image *> &images,
          uint64_t total_cycles)
{
    obs::metrics().reset();
    Machine machine;
    machine.setEngine(engine);
    for (uint32_t c = 0; c < images.size(); ++c)
        machine.load(*images[c], c);

    RunRecord rec;
    machine.scheduleAfter(total_cycles / 3, [&machine, &rec] {
        rec.eventLog.push_back(1);
        machine.core(0).stealCycles(5'000);
    });
    machine.scheduleAfter(total_cycles / 3, [&machine, &rec] {
        // Same cycle as the steal: order must hold in both engines.
        rec.eventLog.push_back(2);
        if (machine.numCores() > 1)
            machine.core(1).setNapIntensity(0.5);
    });
    machine.scheduleAfter(2 * total_cycles / 3, [&machine, &rec] {
        rec.eventLog.push_back(3);
        if (machine.numCores() > 1)
            machine.core(1).setNapIntensity(0.0);
    });

    uint64_t chunks[] = {total_cycles / 7, total_cycles / 3 + 11, 1,
                         total_cycles};
    for (uint64_t c : chunks)
        machine.runFor(c);

    rec.now = machine.now();
    for (uint32_t c = 0; c < machine.numCores(); ++c)
        rec.hpm.push_back(machine.core(c).hpm());
    rec.l3Misses = machine.memsys().l3().stats().misses;
    rec.dramAccesses = machine.memsys().dramAccesses();
    machine.exportObsMetrics();
    rec.metricsJson = obs::metrics().toJson();
    return rec;
}

void
expectRunsEq(const RunRecord &step, const RunRecord &batch)
{
    EXPECT_EQ(step.now, batch.now);
    ASSERT_EQ(step.hpm.size(), batch.hpm.size());
    for (uint32_t c = 0; c < step.hpm.size(); ++c)
        expectHpmEq(step.hpm[c], batch.hpm[c], c);
    EXPECT_EQ(step.l3Misses, batch.l3Misses);
    EXPECT_EQ(step.dramAccesses, batch.dramAccesses);
    EXPECT_EQ(step.eventLog, batch.eventLog);
    EXPECT_EQ(step.metricsJson, batch.metricsJson);
}

TEST_F(EngineTest, StepVsBatchSpinPlusWalker)
{
    // Asymmetric per-instruction costs: the cores' clocks leapfrog,
    // exercising the horizon bound against the other-core minimum.
    ir::Module sm = spinModule();
    isa::Image spin = pcc::compilePlain(sm);
    ir::Module wm = walkerModule(1 << 20, "walker", 320);
    isa::Image walker = pcc::compilePlain(wm);
    RunRecord step =
        runEngine(Engine::Step, {&spin, &walker}, 600'000);
    RunRecord batch =
        runEngine(Engine::Batch, {&spin, &walker}, 600'000);
    expectRunsEq(step, batch);
}

TEST_F(EngineTest, StepVsBatchColocatedWalkers)
{
    // Two walkers share the L3: interleaving at the shared level is
    // the most fragile observable, since a reordered access changes
    // which line gets evicted.
    ir::Module am = walkerModule(64 * 1024, "reuse", 320);
    isa::Image a = pcc::compilePlain(am);
    ir::Module bm = walkerModule(4 << 20, "stream");
    isa::Image b = pcc::compilePlain(bm);
    RunRecord step = runEngine(Engine::Step, {&a, &b}, 800'000);
    RunRecord batch = runEngine(Engine::Batch, {&a, &b}, 800'000);
    expectRunsEq(step, batch);
}

TEST_F(EngineTest, StepVsBatchProteanBinary)
{
    // A realistic protean-compiled batch app (virtualized calls,
    // padded loads) on a single hot core — the fleet shape, and the
    // configuration where batching runs longest uninterrupted.
    workloads::BatchSpec spec = workloads::batchSpec("soplex");
    ir::Module m = workloads::buildBatch(spec);
    isa::Image image = pcc::compile(m);
    RunRecord step = runEngine(Engine::Step, {&image}, 400'000);
    RunRecord batch = runEngine(Engine::Batch, {&image}, 400'000);
    expectRunsEq(step, batch);
}

TEST_F(EngineTest, StepVsBatchTwoComputeProcs)
{
    // Two pure-ALU spinners keep their clocks in near-lockstep: the
    // worst case for pairwise bounding (per-instruction ping-pong)
    // and the best case for the joint fenced window, which should
    // run each core's whole window in one call. Byte-identity of the
    // HPM files and metric exports is the contract either way.
    ir::Module am = spinModule("spin_a");
    isa::Image a = pcc::compilePlain(am);
    ir::Module bm = spinModule("spin_b");
    isa::Image b = pcc::compilePlain(bm);
    RunRecord step = runEngine(Engine::Step, {&a, &b}, 500'000);
    RunRecord batch = runEngine(Engine::Batch, {&a, &b}, 500'000);
    expectRunsEq(step, batch);
}

TEST_F(EngineTest, StepVsBatchFourProcMixed)
{
    // All four cores busy: compute, a cache-resident walker, a
    // streaming walker, and a protean batch app contending in the
    // shared L3, with mid-run events throttling cores 0 and 1 —
    // most joint windows here park accesses at the shared L3.
    ir::Module sm = spinModule();
    isa::Image spin = pcc::compilePlain(sm);
    ir::Module rm = walkerModule(64 * 1024, "reuse", 320);
    isa::Image reuse = pcc::compilePlain(rm);
    ir::Module tm = walkerModule(4 << 20, "stream");
    isa::Image stream = pcc::compilePlain(tm);
    workloads::BatchSpec spec = workloads::batchSpec("soplex");
    ir::Module bm = workloads::buildBatch(spec);
    isa::Image app = pcc::compile(bm);
    RunRecord step = runEngine(Engine::Step,
                               {&spin, &reuse, &stream, &app},
                               700'000);
    RunRecord batch = runEngine(Engine::Batch,
                                {&spin, &reuse, &stream, &app},
                                700'000);
    expectRunsEq(step, batch);
}

/** The loop-body constant mostlyPrivateModule's install patches. */
constexpr int64_t kPatchedConst = 5555;

/**
 * A loop whose accesses mostly stay in the core's private caches.
 * Each iteration loads a 1 KiB hot array and stores one word (L1
 * hits), and calls a two-block helper that pcc::compile virtualizes:
 * a CallIndirect whose EVT line stays L1-resident. In the middle of
 * the same block a walk over `cold_bytes` reaches L3 whenever the
 * prefetcher has not covered its line, so cores park mid-superblock.
 */
ir::Module
mostlyPrivateModule(const std::string &name, int64_t cold_bytes,
                    int64_t cold_stride)
{
    ir::Module m(name);
    ir::GlobalId hot = m.addGlobal("hot", 1024);
    ir::GlobalId cold =
        m.addGlobal("cold", static_cast<uint64_t>(cold_bytes) + 4096);
    ir::GlobalId out = m.addGlobal("out", 64);
    ir::IRBuilder b(m);

    b.startFunction("bump", 1);
    ir::BlockId body = b.newBlock();
    b.br(body);
    b.setBlock(body);
    ir::Reg three = b.constInt(3);
    b.ret(b.add(0, three));

    b.startFunction("main", 0);
    ir::Reg hot_base = b.globalAddr(hot);
    ir::Reg cold_base = b.globalAddr(cold);
    ir::Reg out_base = b.globalAddr(out);
    ir::Reg hot_mask = b.constInt(1024 - 8);
    ir::Reg cold_mask = b.constInt(cold_bytes - 8);
    ir::Reg stride = b.constInt(cold_stride);
    ir::Reg eight = b.constInt(8);
    ir::Reg i = b.constInt(0);
    ir::Reg cur = b.constInt(0);
    ir::Reg acc = b.constInt(0);
    ir::Reg addr = b.func().newReg();
    ir::Reg x = b.func().newReg();
    b.func().noteReg(addr);
    b.func().noteReg(x);
    ir::BlockId loop = b.newBlock();
    b.br(loop);
    b.setBlock(loop);
    b.binaryInto(addr, ir::Opcode::And, i, hot_mask);
    b.binaryInto(addr, ir::Opcode::Add, addr, hot_base);
    b.loadInto(x, addr);
    b.binaryInto(acc, ir::Opcode::Add, acc, x);
    ir::Reg k = b.constInt(kPatchedConst);
    b.binaryInto(acc, ir::Opcode::Add, acc, k);
    b.binaryInto(addr, ir::Opcode::And, cur, cold_mask);
    b.binaryInto(addr, ir::Opcode::Add, addr, cold_base);
    b.loadInto(x, addr);
    b.binaryInto(acc, ir::Opcode::Add, acc, x);
    b.store(out_base, acc);
    b.binaryInto(i, ir::Opcode::Add, i, eight);
    b.binaryInto(cur, ir::Opcode::Add, cur, stride);
    b.movInto(acc, b.call(0, {acc}));
    b.br(loop);
    return m;
}

/** Everything a run leaves in the memory system, per level and per
 *  core, plus each process's `out` word. */
struct MemoryRecord
{
    std::vector<HpmCounters> hpm;
    std::vector<CacheStats> caches; ///< l1.c, l2.c per core, then l3
    uint64_t dramAccesses = 0;
    uint64_t prefetches = 0;
    std::vector<uint64_t> l3Lines; ///< L3 lines owned per process
    std::vector<uint64_t> outs;
    SuperblockStats sb; ///< Summed over cores (engine-dependent).
};

/**
 * Run `images[i]` on core i in uneven runFor chunks. With `install`,
 * an event halfway through installs a variant in every process the
 * way RuntimeCompiler does: it appends code, retargets the EVT slot
 * to it, and patches live code in place (the loop constant), so the
 * version bump must retire every decoded block and chained link.
 */
MemoryRecord
runMostlyPrivate(Engine engine,
                 const std::vector<const isa::Image *> &images,
                 uint64_t total_cycles, bool install)
{
    Machine machine;
    machine.setEngine(engine);
    std::vector<Process *> procs;
    for (uint32_t c = 0; c < images.size(); ++c)
        procs.push_back(&machine.load(*images[c], c));
    if (install) {
        machine.scheduleAfter(total_cycles / 2, [&procs] {
            for (Process *p : procs) {
                std::vector<isa::MInst> stub(2);
                stub[0].op = isa::MOp::Add; // bump(x) = x + x
                stub[1].op = isa::MOp::Ret;
                isa::CodeAddr entry = p->appendCode(stub);
                p->writeWord(p->image().evtBase, entry);
                for (isa::CodeAddr a = 0; a < entry; ++a) {
                    isa::MInst in = p->inst(a);
                    if (in.op == isa::MOp::Const &&
                        in.imm == kPatchedConst) {
                        in.imm = 1111;
                        p->patchInst(a, in);
                    }
                }
            }
        });
    }
    uint64_t chunks[] = {total_cycles / 7, total_cycles / 3 + 11, 1,
                         total_cycles};
    for (uint64_t c : chunks)
        machine.runFor(c);

    MemoryRecord rec;
    MemorySystem &ms = machine.memsys();
    for (uint32_t c = 0; c < machine.numCores(); ++c) {
        rec.hpm.push_back(machine.core(c).hpm());
        rec.caches.push_back(ms.l1(c).stats());
        rec.caches.push_back(ms.l2(c).stats());
        const SuperblockStats &s = machine.core(c).superblockStats();
        rec.sb.hits += s.hits;
        rec.sb.misses += s.misses;
        rec.sb.invalidations += s.invalidations;
        rec.sb.linked += s.linked;
    }
    rec.caches.push_back(ms.l3().stats());
    rec.dramAccesses = ms.dramAccesses();
    rec.prefetches = ms.prefetches();
    for (Process *p : procs) {
        rec.l3Lines.push_back(
            ms.l3().linesOwnedBy(p->physBase(), Process::kPhysStride));
        // Global 2 is mostlyPrivateModule's `out`.
        rec.outs.push_back(p->readWord(p->image().layout.base(2)));
    }
    return rec;
}

void
expectMemoryEq(const MemoryRecord &step, const MemoryRecord &batch)
{
    ASSERT_EQ(step.hpm.size(), batch.hpm.size());
    for (uint32_t c = 0; c < step.hpm.size(); ++c)
        expectHpmEq(step.hpm[c], batch.hpm[c], c);
    ASSERT_EQ(step.caches.size(), batch.caches.size());
    for (size_t i = 0; i < step.caches.size(); ++i) {
        SCOPED_TRACE("cache " + std::to_string(i));
        EXPECT_EQ(step.caches[i].accesses, batch.caches[i].accesses);
        EXPECT_EQ(step.caches[i].misses, batch.caches[i].misses);
        EXPECT_EQ(step.caches[i].ntFills, batch.caches[i].ntFills);
    }
    EXPECT_EQ(step.dramAccesses, batch.dramAccesses);
    EXPECT_EQ(step.prefetches, batch.prefetches);
    EXPECT_EQ(step.l3Lines, batch.l3Lines);
    EXPECT_EQ(step.outs, batch.outs);
}

TEST_F(EngineTest, StepVsBatchMostlyPrivateAccesses)
{
    // Cores 0 and 1 run the same image from cycle 0, so their first
    // accesses park at the same cycle and the lower id must take the
    // DRAM queue first. Cores 2 and 3 walk with other strides: a
    // sequential one the prefetcher covers, and one it cannot.
    ir::Module tm = mostlyPrivateModule("twin", 256 * 1024, 8);
    isa::Image twin = pcc::compile(tm);
    ir::Module sm = mostlyPrivateModule("seq", 64 * 1024, 64);
    isa::Image seq = pcc::compile(sm);
    ir::Module gm = mostlyPrivateModule("gap", 512 * 1024, 320);
    isa::Image gap = pcc::compile(gm);

    // The helper call is virtualized, and the cold load sits in the
    // middle of the loop's block, after the constant the install
    // patches.
    isa::CodeAddr patched = isa::kInvalidCodeAddr;
    bool indirect = false;
    for (isa::CodeAddr a = 0;
         a < static_cast<isa::CodeAddr>(twin.code.size()); ++a) {
        const isa::MInst &in = twin.code[a];
        indirect |= in.op == isa::MOp::CallIndirect;
        if (in.op == isa::MOp::Const && in.imm == kPatchedConst)
            patched = a;
    }
    ASSERT_TRUE(indirect);
    ASSERT_NE(patched, isa::kInvalidCodeAddr);
    isa::CodeAddr a = patched;
    while (twin.code[a].op != isa::MOp::Load) {
        ASSERT_FALSE(twin.code[a].isControlFlow());
        ++a;
    }

    for (size_t procs : {2u, 4u}) {
        SCOPED_TRACE(std::to_string(procs) + " procs");
        std::vector<const isa::Image *> images = {&twin, &twin, &seq,
                                                  &gap};
        images.resize(procs);
        MemoryRecord plain =
            runMostlyPrivate(Engine::Step, images, 300'000, false);
        MemoryRecord step =
            runMostlyPrivate(Engine::Step, images, 300'000, true);
        MemoryRecord batch =
            runMostlyPrivate(Engine::Batch, images, 300'000, true);
        expectMemoryEq(step, batch);
        // Most accesses stay private, and some reach L3.
        uint64_t refs = 0;
        for (size_t c = 0; c < procs; ++c)
            refs += step.caches[2 * c].accesses;
        EXPECT_GT(step.caches.back().accesses, 0u);
        EXPECT_LT(2 * step.caches.back().accesses, refs);
        // The install landed mid-run and retired linked blocks.
        EXPECT_NE(plain.outs, step.outs);
        EXPECT_GT(batch.sb.linked, 0u);
        EXPECT_GT(batch.sb.invalidations, 0u);
    }
}

/** A hot loop whose body re-materializes a distinctive constant
 *  every iteration and stores the accumulator to a global — the
 *  superblock cache decodes the Const, so patching it mid-run must
 *  retire the stale block before the next dispatch. */
ir::Module
patchableModule()
{
    ir::Module m("patchable");
    ir::IRBuilder b(m);
    ir::GlobalId g = m.addGlobal("acc", 64);
    b.startFunction("main", 0);
    ir::Reg base = b.globalAddr(g);
    ir::Reg acc = b.constInt(0);
    ir::BlockId loop = b.newBlock();
    b.br(loop);
    b.setBlock(loop);
    ir::Reg k = b.constInt(7777);
    b.binaryInto(acc, ir::Opcode::Add, acc, k);
    b.store(base, acc);
    b.br(loop);
    return m;
}

TEST_F(EngineTest, SuperblockCacheRetiresPatchedCode)
{
    ir::Module m = patchableModule();
    isa::Image image = pcc::compilePlain(m);
    // The loop-body constant this test patches mid-hot-loop.
    isa::CodeAddr patch_addr = isa::kInvalidCodeAddr;
    for (isa::CodeAddr a = 0;
         a < static_cast<isa::CodeAddr>(image.code.size()); ++a) {
        if (image.code[a].op == isa::MOp::Const &&
            image.code[a].imm == 7777)
            patch_addr = a;
    }
    ASSERT_NE(patch_addr, isa::kInvalidCodeAddr);

    struct Out
    {
        uint64_t acc;
        uint64_t invalidations;
    };
    auto run = [&](Engine e, bool patch) {
        Machine machine;
        machine.setEngine(e);
        Process &p = machine.load(image, 0);
        if (patch) {
            machine.schedule(50'000, [&p, patch_addr] {
                isa::MInst inst = p.inst(patch_addr);
                inst.imm = 1111;
                p.patchInst(patch_addr, inst);
            });
        }
        machine.runFor(200'000);
        return Out{p.readWord(image.layout.base(0)),
                   machine.core(0).superblockStats().invalidations};
    };
    Out step_plain = run(Engine::Step, false);
    Out step_patch = run(Engine::Step, true);
    Out batch_patch = run(Engine::Batch, true);
    // The patch changed the reference run (it landed mid-hot-loop)...
    EXPECT_NE(step_plain.acc, step_patch.acc);
    // ...and the batch engine executed zero stale instructions: its
    // accumulator matches the always-fresh Step engine exactly.
    EXPECT_EQ(batch_patch.acc, step_patch.acc);
    // The version bump retired the decoded blocks, not a lucky miss.
    EXPECT_GT(batch_patch.invalidations, 0u);
}

TEST_F(EngineTest, SuperblockCacheRetiresFlippedVariantMidHotLoop)
{
    // RuntimeCompiler's install path, emulated mid-hot-loop: append
    // a variant to the code-cache region, then flip EVT slot 0 to
    // it. The append bumps codeVersion(), so decoded blocks from
    // before the install can never serve a post-flip dispatch.
    workloads::BatchSpec spec = workloads::batchSpec("soplex");
    ir::Module m = workloads::buildBatch(spec);
    isa::Image image = pcc::compile(m);
    ASSERT_TRUE(image.isProtean());

    struct Out
    {
        HpmCounters hpm;
        uint64_t flipped_to;
        uint64_t invalidations;
    };
    auto run = [&](Engine e) {
        obs::metrics().reset();
        Machine machine;
        machine.setEngine(e);
        Process &p = machine.load(image, 0);
        machine.schedule(60'000, [&p] {
            std::vector<isa::MInst> stub(2);
            stub[0].op = isa::MOp::Const;
            stub[0].rd = 0;
            stub[0].imm = 42;
            stub[1].op = isa::MOp::Ret;
            isa::CodeAddr entry = p.appendCode(stub);
            p.writeWord(p.image().evtBase, entry);
        });
        machine.runFor(300'000);
        return Out{machine.core(0).hpm(),
                   p.readWord(image.evtBase),
                   machine.core(0).superblockStats().invalidations};
    };
    Out step = run(Engine::Step);
    Out batch = run(Engine::Batch);
    EXPECT_EQ(step.flipped_to, batch.flipped_to);
    EXPECT_EQ(step.flipped_to, image.code.size()); // stub entry
    expectHpmEq(step.hpm, batch.hpm, 0);
    EXPECT_GT(batch.invalidations, 0u);
}

TEST_F(EngineTest, SameCycleEventsFireInScheduleOrderBothEngines)
{
    for (Engine e : {Engine::Step, Engine::Batch}) {
        SCOPED_TRACE(e == Engine::Step ? "step" : "batch");
        Machine machine;
        machine.setEngine(e);
        std::vector<int> order;
        machine.schedule(1000, [&order] { order.push_back(1); });
        machine.schedule(1000, [&order] { order.push_back(2); });
        machine.schedule(500, [&order] { order.push_back(0); });
        machine.schedule(1000, [&order] { order.push_back(3); });
        machine.runFor(2000);
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    }
}

TEST_F(EngineTest, EventsCanRescheduleUnderBatch)
{
    Machine machine;
    machine.setEngine(Engine::Batch);
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);
    machine.load(image, 0);
    int ticks = 0;
    std::function<void()> tick = [&] {
        ++ticks;
        if (ticks < 5)
            machine.scheduleAfter(100, tick);
    };
    machine.scheduleAfter(100, tick);
    machine.runFor(10'000);
    EXPECT_EQ(ticks, 5);
}

TEST_F(EngineTest, DefaultEngineSelectsNewMachines)
{
    setDefaultEngine(Engine::Step);
    Machine a;
    EXPECT_EQ(a.engine(), Engine::Step);
    setDefaultEngine(Engine::Batch);
    Machine b;
    EXPECT_EQ(b.engine(), Engine::Batch);
    EXPECT_EQ(a.engine(), Engine::Step); // existing machines keep theirs
}

TEST(Cache, AlternatingWaysInOneSetAllHit)
{
    // Alternating between the two ways of one set: every probe must
    // find its line, whichever way it sits in.
    CacheConfig cfg;
    cfg.sizeBytes = 256;
    cfg.ways = 2;
    cfg.lineBytes = 64;
    Cache c("t", cfg);
    c.fill(0, false);
    c.fill(128, false); // same set, other way
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(c.access(0));
        EXPECT_TRUE(c.access(128));
    }
    EXPECT_EQ(c.stats().misses, 0u);
}

TEST(Cache, RepeatedHitsDoNotOutrankALaterTouch)
{
    // Recency is decided by access order alone: hammering one way
    // must not save it from LRU eviction once the other way is
    // touched more recently.
    CacheConfig cfg;
    cfg.sizeBytes = 256;
    cfg.ways = 2;
    cfg.lineBytes = 64;
    Cache c("t", cfg);
    c.fill(0, false);
    c.fill(128, false);
    for (int i = 0; i < 10; ++i)
        c.access(0);
    c.access(128); // 0 is now LRU
    c.access(0);   // 128 LRU again
    c.fill(256, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(128));
    EXPECT_TRUE(c.contains(256));
}

} // namespace
} // namespace sim

namespace fleet {
namespace {

/** Cluster determinism: stats and metric exports must be
 *  byte-identical across repeat runs, and the tracer must only
 *  observe. */
class FleetDeterminismTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::metrics().reset();
        obs::tracer().clear();
    }

    void
    TearDown() override
    {
        obs::tracer().setEnabled(false);
        obs::tracer().clear();
        obs::metrics().reset();
    }
};

struct FleetRecord
{
    FleetStats stats;
    std::string metricsJson;
};

FleetRecord
runFleet(uint32_t servers, double ms, bool traced = false)
{
    obs::metrics().reset();
    obs::tracer().clear();
    obs::tracer().setEnabled(traced);
    FleetConfig cfg;
    cfg.numServers = servers;
    FleetSim sim(cfg);
    sim.run(ms);
    obs::tracer().setEnabled(false);
    FleetRecord rec;
    rec.stats = sim.stats();
    sim.exportObsMetrics();
    rec.metricsJson = obs::metrics().toJson();
    return rec;
}

void
expectStatsEq(const FleetStats &a, const FleetStats &b)
{
    EXPECT_EQ(a.deployRequests, b.deployRequests);
    EXPECT_EQ(a.serverCompiles, b.serverCompiles);
    EXPECT_EQ(a.serverCompileCycles, b.serverCompileCycles);
    EXPECT_EQ(a.remoteHits, b.remoteHits);
    EXPECT_EQ(a.hostBranches, b.hostBranches);
    EXPECT_EQ(a.service.requests, b.service.requests);
    EXPECT_EQ(a.service.hits, b.service.hits);
    EXPECT_EQ(a.service.misses, b.service.misses);
    EXPECT_EQ(a.service.coalesced, b.service.coalesced);
    EXPECT_EQ(a.service.evictions, b.service.evictions);
    EXPECT_EQ(a.service.batches, b.service.batches);
    EXPECT_EQ(a.service.compiles, b.service.compiles);
    EXPECT_EQ(a.service.compileCycles, b.service.compileCycles);
    EXPECT_EQ(a.service.bytesOut, b.service.bytesOut);
}

TEST_F(FleetDeterminismTest, RepeatRunsByteIdentical)
{
    // Repeat runs at every fleet size the benches use agree byte for
    // byte: stats and the whole metrics export.
    for (uint32_t servers : {2u, 4u, 8u}) {
        SCOPED_TRACE("servers " + std::to_string(servers));
        FleetRecord first = runFleet(servers, 30.0);
        FleetRecord again = runFleet(servers, 30.0);
        expectStatsEq(first.stats, again.stats);
        EXPECT_EQ(first.metricsJson, again.metricsJson);
    }
}

TEST_F(FleetDeterminismTest, TracerOnlyObserves)
{
    // Arming the tracer must not perturb the simulation: a traced
    // run simulates exactly what an untraced one does.
    FleetRecord plain = runFleet(2, 15.0);
    EXPECT_EQ(obs::tracer().eventCount(), 0u);
    FleetRecord traced = runFleet(2, 15.0, true);
    EXPECT_GT(obs::tracer().eventCount(), 0u);
    expectStatsEq(plain.stats, traced.stats);
}

} // namespace
} // namespace fleet
} // namespace protean
