/**
 * @file
 * Tests for the simulator substrate: functional memory, caches (LRU
 * and non-temporal insertion), the memory system, core timing
 * mechanisms (nap, stolen cycles, binary translation), flip watches,
 * and the event-driven machine.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "pcc/pcc.h"
#include "sim/cache.h"
#include "sim/machine.h"
#include "sim/memsys.h"
#include "support/random.h"

namespace protean {
namespace sim {
namespace {

TEST(PagedMemory, DefaultZero)
{
    PagedMemory mem;
    EXPECT_EQ(mem.read(0), 0u);
    EXPECT_EQ(mem.read(1 << 20), 0u);
    EXPECT_EQ(mem.residentPages(), 0u);
}

TEST(PagedMemory, ReadBack)
{
    PagedMemory mem;
    mem.write(8, 42);
    mem.write(1 << 30, 7);
    EXPECT_EQ(mem.read(8), 42u);
    EXPECT_EQ(mem.read(1 << 30), 7u);
    EXPECT_EQ(mem.read(16), 0u);
}

TEST(PagedMemory, LoadImage)
{
    PagedMemory mem;
    std::vector<uint8_t> img(16, 0);
    img[0] = 0x01;
    img[8] = 0xff;
    img[15] = 0x80;
    mem.loadImage(img);
    EXPECT_EQ(mem.read(0), 0x01u);
    EXPECT_EQ(mem.read(8), 0x80000000000000ffULL);
}

TEST(PagedMemory, Sparseness)
{
    PagedMemory mem;
    mem.write(0, 1);
    mem.write(1ULL << 40, 1);
    EXPECT_EQ(mem.residentPages(), 2u);
}

CacheConfig
tinyCache()
{
    // 2 sets x 2 ways x 64B lines = 256 B.
    CacheConfig cfg;
    cfg.sizeBytes = 256;
    cfg.ways = 2;
    cfg.lineBytes = 64;
    cfg.latency = 1;
    return cfg;
}

TEST(Cache, HitAfterFill)
{
    Cache c("t", tinyCache());
    EXPECT_FALSE(c.access(0));
    c.fill(0, false);
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(63));  // same line
    EXPECT_FALSE(c.access(64)); // next line, other set
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEviction)
{
    Cache c("t", tinyCache());
    // Set 0 holds lines with addresses 0, 128, 256 (stride 128).
    c.fill(0, false);
    c.fill(128, false);
    c.access(0); // make 0 MRU; 128 becomes LRU
    c.fill(256, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(128));
    EXPECT_TRUE(c.contains(256));
}

TEST(Cache, NtInsertEvictedFirst)
{
    Cache c("t", tinyCache());
    c.fill(0, false);
    c.fill(128, true); // NT: inserted at LRU position
    // 0 was inserted earlier but normally; the NT line must be the
    // first victim.
    c.fill(256, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(128));
}

TEST(Cache, NtLinePromotedOnHit)
{
    Cache c("t", tinyCache());
    c.fill(0, false);
    c.fill(128, true);  // NT: would be the next victim...
    c.access(128);      // ...but reuse promotes it above 0
    c.fill(256, false); // one eviction needed
    EXPECT_TRUE(c.contains(128));
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, OccupancyAccounting)
{
    Cache c("t", tinyCache());
    c.fill(0, false);
    c.fill(64, false);
    c.fill(1 << 20, false);
    EXPECT_EQ(c.linesOwnedBy(0, 4096), 2u);
    EXPECT_EQ(c.linesOwnedBy(1 << 20, 4096), 1u);
}

TEST(Cache, StatsTrackNtFills)
{
    Cache c("t", tinyCache());
    c.fill(0, true);
    c.fill(64, false);
    EXPECT_EQ(c.stats().ntFills, 1u);
}

MachineConfig
smallConfig()
{
    MachineConfig cfg;
    cfg.numCores = 2;
    cfg.prefetchDegree = 0; // precise latency checks
    return cfg;
}

TEST(MemorySystem, LatencyAccumulatesDownHierarchy)
{
    MachineConfig cfg = smallConfig();
    MemorySystem ms(cfg);
    HpmCounters hpm;
    AccessResult r = ms.access(0, 0x1000, false, 0, hpm);
    EXPECT_TRUE(r.dram);
    EXPECT_EQ(r.latency, cfg.l1.latency + cfg.l2.latency +
              cfg.l3.latency + cfg.dramLatency);
    // Second access: L1 hit.
    r = ms.access(0, 0x1000, false, 1000, hpm);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.latency, cfg.l1.latency);
    EXPECT_EQ(hpm.l1Misses, 1u);
    EXPECT_EQ(hpm.dramAccesses, 1u);
}

TEST(MemorySystem, PrivateL1PerCore)
{
    MemorySystem ms(smallConfig());
    HpmCounters hpm;
    ms.access(0, 0x1000, false, 0, hpm);
    // Core 1 misses its own L1/L2 but hits the shared L3.
    AccessResult r = ms.access(1, 0x1000, false, 100, hpm);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_TRUE(r.l3Hit);
}

TEST(MemorySystem, DramQueueingDelays)
{
    MachineConfig cfg = smallConfig();
    MemorySystem ms(cfg);
    HpmCounters hpm;
    // Two back-to-back DRAM accesses at the same instant: the second
    // waits for the channel.
    AccessResult a = ms.access(0, 0x10000, false, 0, hpm);
    AccessResult b = ms.access(1, 0x20000, false, 0, hpm);
    EXPECT_EQ(b.latency, a.latency + cfg.dramOccupancy);
}

TEST(MemorySystem, NtFillGoesToLruInL3)
{
    MachineConfig cfg = smallConfig();
    MemorySystem ms(cfg);
    HpmCounters hpm;
    ms.access(0, 0x1000, true, 0, hpm);
    EXPECT_GT(ms.l3().stats().ntFills, 0u);
    // Value still resident (LruInsert, not bypass).
    EXPECT_TRUE(ms.l3().contains(0x1000));
}

TEST(MemorySystem, NtBypassSkipsSharedLevels)
{
    MachineConfig cfg = smallConfig();
    cfg.ntPolicy = NtPolicy::Bypass;
    MemorySystem ms(cfg);
    HpmCounters hpm;
    ms.access(0, 0x1000, true, 0, hpm);
    EXPECT_FALSE(ms.l3().contains(0x1000));
    EXPECT_FALSE(ms.l2(0).contains(0x1000));
    // L1 still fills so the core's own locality survives.
    EXPECT_TRUE(ms.l1(0).contains(0x1000));
}

TEST(MemorySystem, PrefetcherFillsAhead)
{
    MachineConfig cfg = smallConfig();
    cfg.prefetchDegree = 2;
    cfg.prefetchMinRun = 4;
    MemorySystem ms(cfg);
    HpmCounters hpm;
    // Establish a sequential run so the stride detector arms; once
    // armed, the walk's future lines are covered by prefetch.
    for (int i = 0; i < 8; ++i)
        ms.access(0, 0x3e00 + 64ULL * i, false, 0, hpm);
    EXPECT_GT(ms.prefetches(), 0u);
    // The next line in the walk was prefetched: it hits, not DRAM.
    AccessResult r = ms.access(0, 0x4000, false, 500, hpm);
    EXPECT_FALSE(r.dram);
    // Far-away lines were not touched.
    EXPECT_FALSE(ms.l3().contains(0x4000 + 64ULL * 32));
}

TEST(MemorySystem, PrefetchInheritsNtFlag)
{
    MachineConfig cfg = smallConfig();
    cfg.prefetchDegree = 1;
    cfg.prefetchMinRun = 4;
    MemorySystem ms(cfg);
    HpmCounters hpm;
    for (int i = 0; i < 8; ++i)
        ms.access(0, 0x7e00 + 64ULL * i, true, 0, hpm);
    uint64_t before = ms.l3().stats().ntFills;
    ms.access(0, 0x8000, true, 0, hpm);
    // Demand NT fill + prefetch NT fill.
    EXPECT_EQ(ms.l3().stats().ntFills, before + 2);
}

TEST(MemorySystem, NoPrefetchForStridedAccess)
{
    MachineConfig cfg = smallConfig();
    cfg.prefetchDegree = 4;
    cfg.prefetchMinRun = 4;
    MemorySystem ms(cfg);
    HpmCounters hpm;
    // Stride of 5 lines never arms the detector.
    for (int i = 0; i < 20; ++i)
        ms.access(0, 0x10000 + 320ULL * i, false, 0, hpm);
    EXPECT_EQ(ms.prefetches(), 0u);
}

/** The stats of every cache level and the DRAM channel's counts, by
 *  name. */
std::map<std::string, uint64_t>
memoryFigures(MemorySystem &ms, uint32_t cores)
{
    std::map<std::string, uint64_t> f;
    auto addCache = [&f](const Cache &c) {
        f[c.name() + ".accesses"] = c.stats().accesses;
        f[c.name() + ".misses"] = c.stats().misses;
        f[c.name() + ".nt_fills"] = c.stats().ntFills;
    };
    for (uint32_t c = 0; c < cores; ++c) {
        addCache(ms.l1(c));
        addCache(ms.l2(c));
    }
    addCache(ms.l3());
    f["dram_accesses"] = ms.dramAccesses();
    f["prefetches"] = ms.prefetches();
    return f;
}

/** Every figure a seeded two-core stream leaves in the memory
 *  system, by name. Sequential runs arm the prefetcher, strided runs
 *  miss without it, and a hot region per core gives L2 and L3 hits;
 *  30% of the runs are non-temporal. With `split`, each access runs
 *  as its private half and, when that misses, its shared half. */
std::map<std::string, uint64_t>
seededStreamFigures(NtPolicy policy, bool split = false)
{
    MachineConfig cfg;
    cfg.numCores = 2;
    cfg.ntPolicy = policy;
    MemorySystem ms(cfg);
    HpmCounters hpm;
    Rng rng(2014);
    // Each core works in its own window, four times the L3; its
    // first eighth is the hot region.
    const uint64_t window = 4ULL * cfg.l3.sizeBytes;
    uint64_t now = 0;
    uint64_t latency = 0;
    for (int run = 0; run < 600; ++run) {
        uint32_t core = static_cast<uint32_t>(rng.nextBelow(2));
        bool nt = rng.nextBool(0.3);
        uint64_t stride = 64; // sequential
        switch (rng.nextBelow(3)) {
          case 1:
            stride = 64 * (2 + rng.nextBelow(8));
            break;
          case 2:
            stride = 8; // several touches per line
            break;
        }
        uint64_t start =
            rng.nextBelow(rng.nextBool(0.5) ? window / 8 : window);
        uint64_t len = 4 + rng.nextBelow(36);
        for (uint64_t i = 0; i < len; ++i) {
            uint64_t addr = core * window + (start + i * stride) % window;
            AccessResult r;
            if (split) {
                PrivateProbe probe;
                r = ms.accessPrivate(core, addr, hpm, probe);
                if (!r.l1Hit && !r.l2Hit)
                    r = ms.accessShared(core, addr, nt, now, hpm, probe);
            } else {
                r = ms.access(core, addr, nt, now, hpm);
            }
            latency += r.latency;
            now += r.latency;
        }
    }
    std::map<std::string, uint64_t> f = memoryFigures(ms, cfg.numCores);
    f["latency"] = latency;
    f["l3_lines.core0"] = ms.l3().linesOwnedBy(0, window);
    f["l3_lines.core1"] = ms.l3().linesOwnedBy(window, window);
    return f;
}

// The expected figures were recorded from the memory system as it
// stood before its caches were laid out as tag and stamp arrays; any
// change to replacement, prefetch or bypass order moves them.
TEST(MemorySystem, SeededStreamPinnedUnderLruInsert)
{
    std::map<std::string, uint64_t> want = {
        {"l1.0.accesses", 5591}, {"l1.0.misses", 3940},
        {"l1.0.nt_fills", 0},    {"l1.1.accesses", 6936},
        {"l1.1.misses", 4812},   {"l1.1.nt_fills", 0},
        {"l2.0.accesses", 3940}, {"l2.0.misses", 2803},
        {"l2.0.nt_fills", 1319}, {"l2.1.accesses", 4812},
        {"l2.1.misses", 3466},   {"l2.1.nt_fills", 1209},
        {"l3.accesses", 6269},   {"l3.misses", 4742},
        {"l3.nt_fills", 2153},   {"latency", 474928},
        {"dram_accesses", 7412}, {"prefetches", 2670},
        {"l3_lines.core0", 906}, {"l3_lines.core1", 1142},
    };
    EXPECT_EQ(seededStreamFigures(NtPolicy::LruInsert), want);
}

TEST(MemorySystem, SeededStreamPinnedUnderBypass)
{
    std::map<std::string, uint64_t> want = {
        {"l1.0.accesses", 5591}, {"l1.0.misses", 3940},
        {"l1.0.nt_fills", 0},    {"l1.1.accesses", 6936},
        {"l1.1.misses", 4812},   {"l1.1.nt_fills", 0},
        {"l2.0.accesses", 3940}, {"l2.0.misses", 3058},
        {"l2.0.nt_fills", 0},    {"l2.1.accesses", 4812},
        {"l2.1.misses", 3746},   {"l2.1.nt_fills", 0},
        {"l3.accesses", 6804},   {"l3.misses", 5387},
        {"l3.nt_fills", 0},      {"latency", 523258},
        {"dram_accesses", 7288}, {"prefetches", 1901},
        {"l3_lines.core0", 913}, {"l3_lines.core1", 1135},
    };
    EXPECT_EQ(seededStreamFigures(NtPolicy::Bypass), want);
}

TEST(MemorySystem, AccessIsPrivateThenSharedHalf)
{
    // The multi-core engine issues each access as two halves, with
    // other cores' work in between; together they must be access().
    for (NtPolicy p : {NtPolicy::LruInsert, NtPolicy::Bypass})
        EXPECT_EQ(seededStreamFigures(p, true), seededStreamFigures(p));
}

TEST(MemorySystem, PrivateMissChangesNothing)
{
    // Twin memory systems see the same accesses, except that `probed`
    // also runs the private half of an access that misses L1 and L2.
    // Nothing may change: not the stats, not the lines a fill of the
    // missed line would evict, and not the stride run that decides
    // the next prefetch.
    MachineConfig cfg = smallConfig();
    cfg.prefetchDegree = 2;
    cfg.prefetchMinRun = 4;
    MemorySystem probed(cfg);
    MemorySystem twin(cfg);
    HpmCounters hp;
    HpmCounters ht;
    // Fill every way of L1 set 0 (its lines lie 1 KiB apart), then
    // walk four sequential lines: one short of arming the prefetcher.
    const uint64_t set0 = 0x40000;
    const uint64_t run = 0x80040;
    std::vector<uint64_t> addrs;
    for (uint64_t w = 0; w < cfg.l1.ways; ++w)
        addrs.push_back(set0 + 1024 * w);
    for (uint64_t i = 0; i < 4; ++i)
        addrs.push_back(run + 64 * i);
    for (uint64_t a : addrs) {
        probed.access(0, a, false, 0, hp);
        twin.access(0, a, false, 0, ht);
    }

    // A line in L1 set 0 that misses both private levels.
    PrivateProbe probe;
    AccessResult r = probed.accessPrivate(0, 0xc0000, hp, probe);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_FALSE(r.l2Hit);
    EXPECT_FALSE(probe.l1.hit);
    EXPECT_FALSE(probe.l2.hit);
    EXPECT_EQ(memoryFigures(probed, 2), memoryFigures(twin, 2));
    EXPECT_EQ(hp.l1Misses, ht.l1Misses);
    EXPECT_EQ(hp.l2Misses, ht.l2Misses);
    EXPECT_EQ(hp.l3Accesses, ht.l3Accesses);
    for (uint64_t w = 0; w < cfg.l1.ways; ++w)
        EXPECT_TRUE(probed.l1(0).contains(set0 + 1024 * w));
    EXPECT_FALSE(probed.l1(0).contains(0xc0000));
    EXPECT_FALSE(probed.l2(0).contains(0xc0000));

    // The fifth sequential line arms the prefetcher in both.
    probed.access(0, run + 64 * 4, false, 0, hp);
    twin.access(0, run + 64 * 4, false, 0, ht);
    EXPECT_GT(twin.prefetches(), 0u);
    EXPECT_EQ(memoryFigures(probed, 2), memoryFigures(twin, 2));
    EXPECT_EQ(hp.l1Misses, ht.l1Misses);
    EXPECT_EQ(hp.l2Misses, ht.l2Misses);
    EXPECT_EQ(hp.l3Accesses, ht.l3Accesses);
    EXPECT_EQ(hp.dramAccesses, ht.dramAccesses);
}

/** Build a tiny infinite-loop program for timing tests. */
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

TEST(Core, NapDutyCycleThrottles)
{
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);

    auto run_with_nap = [&](double nap) {
        Machine machine;
        Process &proc = machine.load(image, 0);
        (void)proc;
        machine.core(0).setNapIntensity(nap);
        machine.runFor(1'000'000);
        return machine.core(0).hpm().instructions;
    };

    uint64_t full = run_with_nap(0.0);
    uint64_t half = run_with_nap(0.5);
    uint64_t tenth = run_with_nap(0.9);
    EXPECT_NEAR(static_cast<double>(half) / full, 0.5, 0.05);
    EXPECT_NEAR(static_cast<double>(tenth) / full, 0.1, 0.05);
}

TEST(Core, NappedCyclesCounted)
{
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);
    Machine machine;
    machine.load(image, 0);
    machine.core(0).setNapIntensity(0.25);
    machine.runFor(400'000);
    double frac = static_cast<double>(
        machine.core(0).hpm().nappedCycles) /
        machine.core(0).hpm().cycles;
    EXPECT_NEAR(frac, 0.25, 0.03);
}

TEST(Core, StolenCyclesDelayHost)
{
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);

    Machine base;
    base.load(image, 0);
    base.runFor(100'000);
    uint64_t unimpeded = base.core(0).hpm().instructions;

    Machine machine;
    machine.load(image, 0);
    machine.core(0).stealCycles(50'000);
    machine.runFor(100'000);
    uint64_t impeded = machine.core(0).hpm().instructions;
    EXPECT_NEAR(static_cast<double>(impeded) / unimpeded, 0.5, 0.05);
    EXPECT_EQ(machine.core(0).hpm().stolenCycles, 50'000u);
}

TEST(Core, StolenCyclesOnIdleCore)
{
    Machine machine;
    machine.core(2).stealCycles(10'000);
    machine.runFor(50'000);
    EXPECT_EQ(machine.core(2).hpm().stolenCycles, 10'000u);
}

TEST(Core, BinaryTranslationAddsOverhead)
{
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);

    Machine native;
    native.load(image, 0);
    native.runFor(500'000);
    uint64_t native_instrs = native.core(0).hpm().instructions;

    Machine bt;
    bt.load(image, 0);
    BtConfig cfg;
    cfg.enabled = true;
    bt.core(0).setBtConfig(cfg);
    bt.runFor(500'000);
    uint64_t bt_instrs = bt.core(0).hpm().instructions;

    EXPECT_LT(bt_instrs, native_instrs);
    // The spin loop is a worst case (a taken branch every other
    // instruction), so the dispatch tax is huge but bounded.
    EXPECT_GT(bt_instrs, native_instrs / 40);
}

TEST(Core, BtLookupIsChargedOnReturnsNotIndirectCalls)
{
    // Leaf A [0, 2) returns; main [2, 4) calls A through EVT slot 0,
    // then jumps back to the call.
    auto op = [](isa::MOp o, isa::CodeAddr target = isa::kInvalidCodeAddr) {
        isa::MInst in;
        in.op = o;
        in.target = target;
        return in;
    };
    isa::Image im;
    im.name = "bt";
    im.code = {op(isa::MOp::Nop), op(isa::MOp::Ret),
               op(isa::MOp::CallIndirect), op(isa::MOp::Jmp, 2)};
    im.functions.push_back({"main", 0, 2, 4});
    im.entryFunc = 0;
    im.evtBase = isa::kHdrBytes;
    im.evtCount = 1;
    im.initialData.assign(isa::kHdrBytes + 8, 0);
    im.setInitialWord(im.evtBase, 0);

    BtConfig bt;
    bt.enabled = true;
    Machine native;
    Machine translated;
    native.load(im, 0);
    translated.load(im, 0);
    Core &n = native.core(0);
    Core &t = translated.core(0);
    t.setBtConfig(bt); // translates main's entry block
    // Each step's BT charge: its cycles under BT minus its cycles on
    // the native twin, over two laps of call, Nop, return, jump.
    std::vector<uint64_t> charge;
    for (int i = 0; i < 8; ++i) {
        uint64_t n0 = n.cycle();
        uint64_t t0 = t.cycle();
        n.step();
        t.step();
        ASSERT_EQ(n.pc(), t.pc());
        charge.push_back((t.cycle() - t0) - (n.cycle() - n0));
    }
    // The call pays the linked-block residual, the return the
    // indirect lookup; the first lap also translates A's head and
    // the return point.
    const uint64_t tr = bt.translateCycles;
    const uint64_t call = bt.takenExtraCycles;
    const uint64_t ret = bt.indirectCycles;
    EXPECT_EQ(charge, (std::vector<uint64_t>{call + tr, 0, ret + tr, call,
                                             call, 0, ret, call}));
}

TEST(Machine, EventsFireInOrder)
{
    Machine machine;
    std::vector<int> order;
    machine.schedule(100, [&] { order.push_back(2); });
    machine.schedule(50, [&] { order.push_back(1); });
    machine.schedule(100, [&] { order.push_back(3); }); // FIFO at tie
    machine.runFor(200);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
    EXPECT_EQ(machine.now(), 200u);
}

TEST(Machine, EventsCanReschedule)
{
    Machine machine;
    int fires = 0;
    std::function<void()> tick = [&] {
        ++fires;
        if (fires < 5)
            machine.scheduleAfter(10, tick);
    };
    machine.scheduleAfter(10, tick);
    machine.runFor(1000);
    EXPECT_EQ(fires, 5);
}

TEST(Machine, RunToCompletionHalts)
{
    ir::Module m("finite");
    ir::IRBuilder b(m);
    b.startFunction("main", 0);
    b.ret();
    isa::Image image = pcc::compilePlain(m);
    Machine machine;
    Process &proc = machine.load(image, 0);
    machine.runToCompletion();
    EXPECT_EQ(proc.state(), ProcState::Halted);
    EXPECT_TRUE(machine.allHalted());
}

TEST(Machine, DeterministicAcrossRuns)
{
    auto run = [] {
        ir::Module m = spinModule();
        isa::Image image = pcc::compilePlain(m);
        Machine machine;
        machine.load(image, 0);
        machine.load(image, 1);
        machine.runFor(123'456);
        return std::make_pair(machine.core(0).hpm().instructions,
                              machine.core(1).hpm().instructions);
    };
    EXPECT_EQ(run(), run());
}

/** A looping walker over `bytes` of data. `stride_bytes` of one
 *  line is prefetch-friendly streaming; five lines defeats the
 *  stride prefetcher (a latency-sensitive pattern). */
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

TEST(Machine, SharedL3Contention)
{
    // A reuse walker (fits the LLC) is slowed by a streaming
    // co-runner that thrashes the LLC.
    ir::Module victim_m = walkerModule(64 * 1024, "victim", 320);
    isa::Image victim = pcc::compilePlain(victim_m);
    ir::Module streamer_m = walkerModule(4 << 20, "streamer");
    isa::Image streamer = pcc::compilePlain(streamer_m);

    Machine solo;
    solo.load(victim, 0);
    solo.runFor(3'000'000);
    uint64_t alone = solo.core(0).hpm().instructions;

    Machine duo;
    duo.load(victim, 0);
    duo.load(streamer, 1);
    duo.runFor(3'000'000);
    uint64_t together = duo.core(0).hpm().instructions;
    EXPECT_LT(static_cast<double>(together),
              0.92 * static_cast<double>(alone));
}

TEST(Machine, NtHintsShieldCoRunner)
{
    // The paper's core effect: the same streamer with non-temporal
    // loads takes far less from its co-runner.
    ir::Module victim_m = walkerModule(64 * 1024, "victim", 320);
    isa::Image victim = pcc::compilePlain(victim_m);

    auto victim_speed = [&](bool nt) {
        ir::Module sm = walkerModule(4 << 20, "streamer");
        sm.renumberLoads();
        isa::Image streamer = pcc::compilePlain(sm);
        if (nt) {
            for (auto &inst : streamer.code) {
                if (inst.op == isa::MOp::Load)
                    inst.nonTemporal = true;
            }
        }
        Machine duo;
        duo.load(victim, 0);
        duo.load(streamer, 1);
        duo.runFor(3'000'000);
        return duo.core(0).hpm().instructions;
    };

    uint64_t with_plain = victim_speed(false);
    uint64_t with_nt = victim_speed(true);
    EXPECT_GT(static_cast<double>(with_nt),
              1.05 * static_cast<double>(with_plain));
}

TEST(Machine, LoadRejectsBusyCore)
{
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);
    Machine machine;
    machine.load(image, 0);
    EXPECT_DEATH(
        { Machine bad; bad.load(image, 0); bad.load(image, 0); },
        "already busy");
}

TEST(Machine, PcSamplingSeesHostPc)
{
    ir::Module m = spinModule();
    isa::Image image = pcc::compilePlain(m);
    Machine machine;
    Process &proc = machine.load(image, 0);
    machine.runFor(10'000);
    isa::CodeAddr pc = machine.core(0).pc();
    const isa::FunctionInfo *fi = proc.image().functionAt(pc);
    ASSERT_NE(fi, nullptr);
    EXPECT_EQ(fi->name, "main");
}

// ---------------------------------------------------------------
// Flip watches: the core's side of the flip-effect contract.
// ---------------------------------------------------------------

/** Code layout of watchImage: three leaf functions, then main. */
constexpr isa::CodeAddr kLeafA = 0; // A [0, 3)
constexpr isa::CodeAddr kLeafB = 3; // B [3, 6)
constexpr isa::CodeAddr kLeafC = 6; // C [6, 8)
constexpr isa::CodeAddr kWatchMain = 8;

/** A hand-built image whose main calls `calls` in order, then loops.
 *  Each call and return costs one cycle, as do the leaves' Nops. */
isa::Image
watchImage(const std::vector<isa::CodeAddr> &calls)
{
    auto op = [](isa::MOp o, isa::CodeAddr target = isa::kInvalidCodeAddr) {
        isa::MInst in;
        in.op = o;
        in.target = target;
        return in;
    };
    isa::Image im;
    im.name = "watch";
    im.code = {op(isa::MOp::Nop), op(isa::MOp::Nop), op(isa::MOp::Ret),
               op(isa::MOp::Nop), op(isa::MOp::Nop), op(isa::MOp::Ret),
               op(isa::MOp::Nop), op(isa::MOp::Ret)};
    for (isa::CodeAddr to : calls)
        im.code.push_back(op(isa::MOp::CallDirect, to));
    im.code.push_back(op(isa::MOp::Jmp, kWatchMain));
    im.functions.push_back(
        {"main", 0, kWatchMain, static_cast<isa::CodeAddr>(im.code.size())});
    im.entryFunc = 0;
    im.initialData.assign(isa::kHdrBytes, 0);
    return im;
}

/** One flip-hook call, and the pc of the transfer that made it. */
struct HookCall
{
    uint64_t id;
    bool osr;
    uint64_t cycle;
    isa::CodeAddr from;

    bool operator==(const HookCall &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const HookCall &c)
{
    return os << "{id " << c.id << (c.osr ? " osr" : " entry")
              << " cycle " << c.cycle << " from " << c.from << "}";
}

/** What one watched run observed. */
struct WatchRun
{
    std::vector<HookCall> calls;
    uint64_t cycle = 0;  ///< Core 0's clock at the end.
    size_t watched = 0;  ///< Functions still watched at the end.
};

/** Load `image` on core 0, let `arm` arm watches, run to `until`. */
WatchRun
runWatched(Engine engine, const isa::Image &image, uint64_t until,
           const std::function<void(Core &)> &arm)
{
    Machine machine;
    machine.setEngine(engine);
    machine.load(image, 0);
    Core &core = machine.core(0);
    WatchRun r;
    core.setFlipHook([&](uint64_t id, bool osr, uint64_t cycle) {
        r.calls.push_back({id, osr, cycle, core.pc()});
    });
    arm(core);
    machine.run(until);
    r.cycle = core.cycle();
    r.watched = core.watchedFunctionCount();
    return r;
}

/** runWatched under Step and Batch, which must agree exactly. */
WatchRun
watchedRun(const isa::Image &image, uint64_t until,
           const std::function<void(Core &)> &arm)
{
    WatchRun step = runWatched(Engine::Step, image, until, arm);
    WatchRun batch = runWatched(Engine::Batch, image, until, arm);
    EXPECT_EQ(step.calls, batch.calls);
    EXPECT_EQ(step.cycle, batch.cycle);
    EXPECT_EQ(step.watched, batch.watched);
    return step;
}

TEST(FlipWatch, FiresAtFirstTransferIntoItsOwnRangeOnly)
{
    // main calls B, then A; C is never entered.
    WatchRun r = watchedRun(
        watchImage({kLeafB, kLeafA}), 1000, [](Core &core) {
            core.armFlipWatch({1, 0, kLeafA, kLeafB, kLeafA});
            core.armFlipWatch({2, 2, kLeafC, kWatchMain, kLeafC});
        });
    // Not at the call into B (cycle 0), nor at any later call into A.
    EXPECT_EQ(r.calls,
              (std::vector<HookCall>{{1, false, 4, kWatchMain + 1}}));
    EXPECT_EQ(r.watched, 1u); // C's watch still pending
}

TEST(FlipWatch, EntryLandingIsEntryFlipMidRangeIsOsr)
{
    // main calls A past its entry (as an OSR redirect lands on a loop
    // header), then B at its entry.
    WatchRun r = watchedRun(
        watchImage({kLeafA + 1, kLeafB}), 1000, [](Core &core) {
            core.armFlipWatch({1, 0, kLeafA, kLeafB, kLeafA});
            core.armFlipWatch({2, 1, kLeafB, kLeafC, kLeafB});
        });
    EXPECT_EQ(r.calls, (std::vector<HookCall>{{1, true, 0, kWatchMain},
                                              {2, false, 3,
                                               kWatchMain + 1}}));
    EXPECT_EQ(r.watched, 0u);
}

TEST(FlipWatch, NewerDispatchMovesEveryOlderWatchToItsRange)
{
    // One function flipped 1,000 times between two variants (A and C)
    // without re-entering, then once more to B: every watch now waits
    // for B. main enters A, C, then B.
    constexpr uint64_t kOlder = 1000;
    WatchRun r = watchedRun(
        watchImage({kLeafA, kLeafC, kLeafB}), 1000, [](Core &core) {
            for (uint64_t id = 1; id <= kOlder; ++id) {
                if (id % 2)
                    core.armFlipWatch({id, 5, kLeafA, kLeafB, kLeafA});
                else
                    core.armFlipWatch({id, 5, kLeafC, kWatchMain, kLeafC});
            }
            core.armFlipWatch({kOlder + 1, 5, kLeafB, kLeafC, kLeafB});
            EXPECT_EQ(core.watchedFunctionCount(), 1u);
        });
    // All fire in one transfer, the call into B at cycle 7, in arming
    // order.
    std::vector<HookCall> expected;
    for (uint64_t id = 1; id <= kOlder + 1; ++id)
        expected.push_back({id, false, 7, kWatchMain + 2});
    EXPECT_EQ(r.calls, expected);
    EXPECT_EQ(r.watched, 0u);
}

TEST(FlipWatch, ReportsTheCycleBeforeTheBtCharge)
{
    BtConfig bt;
    bt.enabled = true;
    uint64_t before = 0;
    // One instruction: main's call into A.
    WatchRun r = watchedRun(
        watchImage({kLeafA}), bt.translateCycles + 1, [&](Core &core) {
            core.setBtConfig(bt); // translates main's entry block
            before = core.cycle();
            core.armFlipWatch({1, 0, kLeafA, kLeafB, kLeafA});
        });
    EXPECT_EQ(before, bt.translateCycles);
    EXPECT_EQ(r.calls,
              (std::vector<HookCall>{{1, false, before, kWatchMain}}));
    // The call's own cycle, then its BT cost: the linked-block
    // residual and A's first translation.
    EXPECT_EQ(r.cycle,
              before + 1 + bt.takenExtraCycles + bt.translateCycles);
}

TEST(FlipWatch, BindDropsEveryPendingWatch)
{
    WatchRun r = watchedRun(
        watchImage({kLeafA, kLeafB}), 1000, [](Core &core) {
            core.armFlipWatch({1, 0, kLeafA, kLeafB, kLeafA});
            core.armFlipWatch({2, 1, kLeafB, kLeafC, kLeafB});
            EXPECT_EQ(core.watchedFunctionCount(), 2u);
            core.bind(core.process());
            EXPECT_EQ(core.watchedFunctionCount(), 0u);
        });
    EXPECT_TRUE(r.calls.empty());
    EXPECT_EQ(r.watched, 0u);
}

TEST(FlipWatch, OverlappingRangesOfTwoFunctionsPanic)
{
    // Exactness rests on variants of different functions being
    // disjoint appended code: at most one entry covers a transfer.
    EXPECT_DEATH(
        {
            Machine machine;
            machine.load(watchImage({kLeafA}), 0);
            machine.core(0).armFlipWatch({1, 0, kLeafA, kLeafC, kLeafA});
            machine.core(0).armFlipWatch({2, 1, kLeafB, kLeafC, kLeafB});
        },
        "overlaps");
}

} // namespace
} // namespace sim
} // namespace protean
