/**
 * @file
 * Property-based tests: invariants that must hold across the whole
 * workload registry, random cache access streams, and randomized
 * search oracles.
 */

#include <gtest/gtest.h>

#include <set>

#include "ir/printer.h"
#include "ir/serializer.h"
#include "ir/verifier.h"
#include "pc3d/search.h"
#include "pcc/pcc.h"
#include "sim/cache.h"
#include "sim/machine.h"
#include "support/random.h"
#include "workloads/registry.h"

namespace protean {
namespace {

// --------------------------------------------------------------
// Registry-wide structural invariants.

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
  protected:
    ir::Module
    build()
    {
        workloads::BatchSpec spec =
            workloads::batchSpec(GetParam());
        return workloads::buildBatch(spec);
    }
};

TEST_P(EveryWorkload, SerializerRoundtripIsExact)
{
    ir::Module m = build();
    auto back = ir::deserializeCompressed(
        ir::serializeCompressed(m));
    EXPECT_EQ(ir::toString(m), ir::toString(*back));
    EXPECT_EQ(m.numLoads(), back->numLoads());
    EXPECT_TRUE(ir::verify(*back));
}

TEST_P(EveryWorkload, ImageStructuralInvariants)
{
    ir::Module m = build();
    isa::Image image = pcc::compile(m);

    // Function ranges tile the code array without gaps or overlap.
    isa::CodeAddr cursor = 0;
    for (const auto &fi : image.functions) {
        EXPECT_EQ(fi.entry, cursor) << fi.name;
        EXPECT_GT(fi.end, fi.entry) << fi.name;
        cursor = fi.end;
    }
    EXPECT_EQ(cursor, image.code.size());

    for (const auto &fi : image.functions) {
        for (isa::CodeAddr a = fi.entry; a < fi.end; ++a) {
            const isa::MInst &inst = image.code[a];
            switch (inst.op) {
              case isa::MOp::Jmp:
              case isa::MOp::Bnz:
                // Intra-function branches stay in the function.
                EXPECT_GE(inst.target, fi.entry);
                EXPECT_LT(inst.target, fi.end);
                break;
              case isa::MOp::CallDirect:
                // Every direct call is patched to a function entry.
                ASSERT_NE(inst.target, isa::kInvalidCodeAddr);
                EXPECT_NE(image.functionAt(inst.target), nullptr);
                EXPECT_EQ(image.functionAt(inst.target)->entry,
                          inst.target);
                break;
              case isa::MOp::CallIndirect:
                EXPECT_LT(inst.evtSlot, image.evtCount);
                break;
              default:
                break;
            }
        }
    }

    // Every EVT slot initially targets the entry of its function.
    for (uint32_t slot = 0; slot < image.evtCount; ++slot) {
        ir::FuncId f = image.evtSlotFunc[slot];
        EXPECT_EQ(image.initialWord(image.evtBase + 8ULL * slot),
                  image.functions[f].entry);
    }

    // The static loads in the machine code carry valid LoadIds.
    std::set<ir::LoadId> seen;
    for (const auto &inst : image.code) {
        if (inst.op == isa::MOp::Load &&
            inst.loadId != ir::kInvalidId) {
            EXPECT_LT(inst.loadId, m.numLoads());
            seen.insert(inst.loadId);
        }
    }
    EXPECT_EQ(seen.size(), m.numLoads());
}

TEST_P(EveryWorkload, ProteanBinaryRunsAndMakesProgress)
{
    ir::Module m = build();
    isa::Image image = pcc::compile(m);
    sim::Machine machine;
    machine.load(image, 0);
    machine.runFor(4'000'000);
    EXPECT_GT(machine.core(0).hpm().instructions, 10'000u);
    EXPECT_FALSE(machine.allHalted());
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EveryWorkload,
    ::testing::ValuesIn(workloads::specBenchmarkNames()));

INSTANTIATE_TEST_SUITE_P(
    Smash, EveryWorkload,
    ::testing::Values("blockie", "bst", "er-naive", "sledge"));

// --------------------------------------------------------------
// Cache invariants under random access streams.

struct CacheGeom
{
    uint32_t size;
    uint32_t ways;
};

class CacheProperties : public ::testing::TestWithParam<CacheGeom>
{};

TEST_P(CacheProperties, ContentsSubsetOfAccessed)
{
    sim::CacheConfig cfg;
    cfg.sizeBytes = GetParam().size;
    cfg.ways = GetParam().ways;
    cfg.lineBytes = 64;
    sim::Cache cache("prop", cfg);

    Rng rng(GetParam().size + GetParam().ways);
    std::set<uint64_t> filled;
    for (int i = 0; i < 5000; ++i) {
        uint64_t addr = rng.nextBelow(1 << 20) & ~63ULL;
        bool nt = rng.nextBool(0.3);
        if (!cache.access(addr))
            cache.fill(addr, nt);
        filled.insert(addr / 64);
    }
    // Every resident line was filled at some point; capacity holds.
    uint64_t resident = cache.linesOwnedBy(0, 1 << 20);
    EXPECT_LE(resident, cfg.sizeBytes / 64);
    for (uint64_t line : filled) {
        if (cache.contains(line * 64)) {
            // contains() implies a prior fill (trivially true since
            // we only fill accessed lines); re-access must hit.
            EXPECT_TRUE(cache.access(line * 64));
        }
    }
}

TEST_P(CacheProperties, HitAfterFillUntilCapacityPressure)
{
    sim::CacheConfig cfg;
    cfg.sizeBytes = GetParam().size;
    cfg.ways = GetParam().ways;
    cfg.lineBytes = 64;
    sim::Cache cache("prop", cfg);

    // Fill exactly one set to capacity: all ways must be resident.
    uint32_t sets = cfg.sizeBytes / (cfg.ways * 64);
    for (uint32_t w = 0; w < cfg.ways; ++w)
        cache.fill(static_cast<uint64_t>(w) * sets * 64, false);
    for (uint32_t w = 0; w < cfg.ways; ++w)
        EXPECT_TRUE(cache.contains(
            static_cast<uint64_t>(w) * sets * 64));
    // One more fill in the set evicts exactly one line.
    cache.fill(static_cast<uint64_t>(cfg.ways) * sets * 64, false);
    uint32_t resident = 0;
    for (uint32_t w = 0; w <= cfg.ways; ++w) {
        resident += cache.contains(
            static_cast<uint64_t>(w) * sets * 64);
    }
    EXPECT_EQ(resident, cfg.ways);
}

/** The replacement rule written out plainly, with a valid flag: the
 *  victim is the first invalid way, else the first least-recent one,
 *  and a non-temporal fill is inserted at the LRU position. */
class ReferenceCache
{
  public:
    ReferenceCache(uint32_t sets, uint32_t ways)
        : sets_(sets), ways_(ways), lines_(sets * ways)
    {}

    bool
    access(uint64_t addr)
    {
        ++stats.accesses;
        Line &l = lines_[slot(addr)];
        if (resident(l, addr)) {
            l.lastUse = clock_++;
            return true;
        }
        ++stats.misses;
        return false;
    }

    void
    fill(uint64_t addr, bool nt)
    {
        Line &l = lines_[slot(addr)];
        if (resident(l, addr))
            return;
        l = Line{addr / 64, nt ? 0 : clock_++, true};
        stats.ntFills += nt;
    }

    bool
    contains(uint64_t addr) const
    {
        return resident(lines_[slot(addr)], addr);
    }

    /** set * ways + the way holding addr's line, else the way its
     *  fill evicts. */
    uint32_t
    slot(uint64_t addr) const
    {
        uint64_t la = addr / 64;
        uint32_t base = static_cast<uint32_t>(la % sets_) * ways_;
        const Line *set = &lines_[base];
        for (uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].tag == la)
                return base + w;
        }
        uint32_t victim = 0;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (!set[w].valid)
                return base + w;
            if (set[w].lastUse < set[victim].lastUse)
                victim = w;
        }
        return base + victim;
    }

    sim::CacheStats stats;

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    uint32_t sets_;
    uint32_t ways_;
    uint64_t clock_ = 1;
    std::vector<Line> lines_;

    static bool
    resident(const Line &l, uint64_t addr)
    {
        return l.valid && l.tag == addr / 64;
    }
};

TEST_P(CacheProperties, MatchesReferenceReplacement)
{
    sim::CacheConfig cfg;
    cfg.sizeBytes = GetParam().size;
    cfg.ways = GetParam().ways;
    cfg.lineBytes = 64;
    // Lines drawn from four times the capacity, half of them from a
    // hot eighth, so hits, evictions and NT inserts all recur.
    uint64_t lines = 4 * cfg.sizeBytes / 64;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sim::Cache cache("prop", cfg);
        ReferenceCache ref(cfg.sizeBytes / (cfg.ways * 64), cfg.ways);
        Rng rng(seed * 1000 + cfg.ways);
        std::set<uint64_t> touched;
        for (int i = 0; i < 20000; ++i) {
            uint64_t line = rng.nextBelow(
                rng.nextBool(0.5) ? lines / 8 : lines);
            uint64_t addr = line * 64 + rng.nextBelow(64);
            bool nt = rng.nextBool(0.3);
            touched.insert(line);
            // The probe names the reference's way: the hit way, or
            // the first invalid, else first least-recent, victim.
            ASSERT_EQ(cache.peek(addr).slot, ref.slot(addr)) << "op " << i;
            if (rng.nextBelow(4) == 0) {
                ASSERT_EQ(cache.contains(addr), ref.contains(addr))
                    << "op " << i;
                continue;
            }
            bool hit = cache.access(addr);
            ASSERT_EQ(hit, ref.access(addr)) << "op " << i;
            if (!hit) {
                cache.fill(addr, nt);
                ref.fill(addr, nt);
            }
        }
        EXPECT_EQ(cache.stats().accesses, ref.stats.accesses);
        EXPECT_EQ(cache.stats().misses, ref.stats.misses);
        EXPECT_EQ(cache.stats().ntFills, ref.stats.ntFills);
        for (uint64_t line : touched) {
            EXPECT_EQ(cache.contains(line * 64), ref.contains(line * 64))
                << "line " << line;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperties,
    ::testing::Values(CacheGeom{1024, 2}, CacheGeom{4096, 4},
                      CacheGeom{16384, 8}, CacheGeom{131072, 16}));

// --------------------------------------------------------------
// Search correctness over randomized oracles.

struct SearchOracle
{
    std::vector<double> benefit;
    std::vector<double> cost;
    double base = 0.0;

    double
    qos(const BitVector &mask, double nap) const
    {
        double c = base;
        for (size_t i = 0; i < benefit.size(); ++i) {
            if (mask.test(i))
                c -= benefit[i];
        }
        c = std::max(c, 0.0);
        return std::min(1.0, 1.0 - c * (1.0 - nap));
    }

    double
    bps(const BitVector &mask, double nap) const
    {
        double slow = 0.0;
        for (size_t i = 0; i < cost.size(); ++i) {
            if (mask.test(i))
                slow += cost[i];
        }
        return (1.0 - nap) * std::max(0.0, 1.0 - slow);
    }
};

class RandomOracles : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(RandomOracles, ResultIsFeasibleAndBeatsNapOnly)
{
    Rng rng(GetParam());
    size_t n = 2 + rng.nextBelow(10);
    SearchOracle oracle;
    oracle.base = 0.1 + 0.4 * rng.nextDouble();
    for (size_t i = 0; i < n; ++i) {
        oracle.benefit.push_back(
            rng.nextDouble() * oracle.base / n * 1.5);
        oracle.cost.push_back(rng.nextDouble() * 0.1);
    }

    pc3d::SearchConfig cfg;
    cfg.qosTarget = 0.95;
    cfg.napEpsilon = 0.02;
    pc3d::VariantSearch search(cfg, n);
    size_t guard = 0;
    while (!search.done() && guard++ < 5000) {
        auto req = search.current();
        pc3d::Measurement meas;
        meas.hostBps = oracle.bps(req.mask, req.nap);
        meas.minQos = oracle.qos(req.mask, req.nap);
        search.onMeasurement(meas);
    }
    ASSERT_TRUE(search.done());

    // 1. The chosen operating point satisfies QoS (within epsilon of
    //    the binary-search resolution).
    double q = oracle.qos(search.bestMask(), search.bestNap());
    EXPECT_GE(q, cfg.qosTarget - 0.02) << "seed " << GetParam();

    // 2. It is at least as good as the nap-only configuration at
    //    ITS minimum feasible nap (the ReQoS operating point).
    BitVector none(n);
    double nap_only = 1.0;
    for (double f = 0.0; f <= 0.99; f += 0.005) {
        if (oracle.qos(none, f) >= cfg.qosTarget) {
            nap_only = f;
            break;
        }
    }
    double reqos_bps = oracle.bps(none, nap_only);
    EXPECT_GE(search.bestBps(), reqos_bps - 0.03)
        << "seed " << GetParam();

    // 3. Window count is bounded by the O(n log 1/eps) budget.
    size_t budget = (n + 2) * 12 + 8;
    EXPECT_LE(search.windowsUsed(), budget);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOracles,
                         ::testing::Range<uint64_t>(1, 25));

} // namespace
} // namespace protean
