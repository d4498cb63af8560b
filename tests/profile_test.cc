/**
 * @file
 * Tests for the continuous-profiling plane: obs::Profile merge
 * algebra and stable exports, per-server VariantProfiler attribution
 * (variant masks + phase ids) and flip ledger, the fleet
 * VariantScoreboard's winner selection, and byte-identical profile /
 * flamegraph / scoreboard exports across repeat runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/scoreboard.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/profiler.h"
#include "support/logging.h"

namespace protean {
namespace {

// ---------------------------------------------------------------- //
//                       Profile merge algebra                      //
// ---------------------------------------------------------------- //

obs::ProfileKey
key(uint64_t hash, const std::string &mask, uint32_t phase)
{
    obs::ProfileKey k;
    k.funcHash = hash;
    k.mask = mask;
    k.phase = phase;
    return k;
}

obs::ProfileCounts
counts(uint64_t samples, uint64_t cycles, uint64_t insts)
{
    obs::ProfileCounts c;
    c.samples = samples;
    c.cycles = cycles;
    c.instructions = insts;
    return c;
}

TEST(Profile, RecordAccumulatesIntoOneBucket)
{
    obs::Profile p;
    p.record(key(7, "m", 0), counts(1, 100, 80));
    p.record(key(7, "m", 0), counts(2, 50, 40));
    p.record(key(7, "m", 1), counts(1, 10, 5));
    ASSERT_EQ(p.entries().size(), 2u);
    EXPECT_EQ(p.totalSamples(), 4u);
    const obs::ProfileCounts &c = p.entries().at(key(7, "m", 0));
    EXPECT_EQ(c.samples, 3u);
    EXPECT_EQ(c.cycles, 150u);
    EXPECT_EQ(c.instructions, 120u);
    EXPECT_EQ(p.samplesOf(7), 4u);
}

TEST(Profile, MergeIsAssociativeAndCommutative)
{
    auto make = [](uint64_t hash, uint64_t n) {
        obs::Profile p;
        p.record(key(hash, "", 0), counts(n, n * 10, n * 8));
        p.record(key(42, "shared", 1), counts(n, n, n));
        return p;
    };
    obs::Profile a = make(1, 3), b = make(2, 5), c = make(3, 7);

    obs::Profile ab_c; // (a + b) + c
    ab_c.merge(a);
    ab_c.merge(b);
    ab_c.merge(c);
    obs::Profile c_ba; // c + (b + a), opposite order
    c_ba.merge(c);
    c_ba.merge(b);
    c_ba.merge(a);
    EXPECT_EQ(ab_c.toJson(), c_ba.toJson());
    EXPECT_EQ(ab_c.folded(), c_ba.folded());
    EXPECT_EQ(ab_c.totalSamples(), 3u + 5 + 7 + 3 + 5 + 7);
    // The shared bucket folded into one entry with summed counts.
    EXPECT_EQ(ab_c.entries().at(key(42, "shared", 1)).samples,
              3u + 5 + 7);
}

TEST(Profile, DrainMovesEverythingAndEmptiesSource)
{
    obs::Profile src;
    src.record(key(9, "x", 2), counts(4, 400, 300));
    src.setName(9, "hot_fn");
    obs::Profile dst;
    dst.record(key(9, "x", 2), counts(1, 10, 8));
    src.drainInto(dst);
    EXPECT_TRUE(src.empty());
    EXPECT_EQ(src.totalSamples(), 0u);
    EXPECT_EQ(dst.totalSamples(), 5u);
    EXPECT_EQ(dst.entries().at(key(9, "x", 2)).samples, 5u);
    EXPECT_EQ(dst.nameOf(9), "hot_fn");
}

TEST(Profile, NamesFirstWriterWinsAndFallbacks)
{
    obs::Profile p;
    p.setName(0xabc, "first");
    p.setName(0xabc, "second"); // ignored
    EXPECT_EQ(p.nameOf(0xabc), "first");
    EXPECT_EQ(p.nameOf(0), "[unattributed]");
    EXPECT_EQ(p.nameOf(0x1f), "f1f"); // never named
}

TEST(Profile, HottestFunctionSumsBucketsAndBreaksTiesLow)
{
    obs::Profile p;
    EXPECT_EQ(p.hottestFunction(), 0u);
    p.record(key(5, "", 0), counts(3, 0, 0));
    p.record(key(5, "m", 1), counts(3, 0, 0)); // 5 totals 6
    p.record(key(2, "", 0), counts(5, 0, 0));
    EXPECT_EQ(p.hottestFunction(), 5u);
    p.record(key(2, "", 1), counts(1, 0, 0)); // tie at 6 each
    EXPECT_EQ(p.hottestFunction(), 2u);       // smaller hash wins
}

TEST(Profile, FoldedLinesNameVariantAndPhaseFrames)
{
    obs::Profile p;
    p.record(key(3, "", 0), counts(2, 0, 0));
    p.record(key(3, "f0:110", 1), counts(7, 0, 0));
    p.setName(3, "kernel");
    EXPECT_EQ(p.folded(),
              "phase_0;kernel;original 2\n"
              "phase_1;kernel;mask_f0:110 7\n");
    EXPECT_NE(p.toJson().find("\"total_samples\": 9"),
              std::string::npos);
}

// ---------------------------------------------------------------- //
//                       Variant scoreboard                         //
// ---------------------------------------------------------------- //

runtime::FlipRecord
flip(uint64_t hash, const std::string &mask, uint32_t phase,
     double before, double after)
{
    runtime::FlipRecord r;
    r.funcHash = hash;
    r.mask = mask;
    r.phase = phase;
    r.ipcBefore = before;
    r.ipcAfter = after;
    return r;
}

TEST(Scoreboard, PicksThePlantedWinnerPerPhase)
{
    fleet::VariantScoreboard sb;
    EXPECT_TRUE(sb.empty());
    EXPECT_EQ(sb.recommendMask(11, 0), "");

    // Phase 0: mask "a" planted to win (+0.3 mean), "b" loses.
    sb.recordFlip(flip(11, "a", 0, 1.0, 1.3));
    sb.recordFlip(flip(11, "a", 0, 1.0, 1.3));
    sb.recordFlip(flip(11, "b", 0, 1.0, 0.9));
    // Phase 1: the tables turn — "b" wins.
    sb.recordFlip(flip(11, "a", 1, 1.0, 0.8));
    sb.recordFlip(flip(11, "b", 1, 1.0, 1.4));

    EXPECT_EQ(sb.recommendMask(11, 0), "a");
    EXPECT_EQ(sb.recommendMask(11, 1), "b");
    EXPECT_EQ(sb.recommendMask(11, 2), ""); // phase never flipped
    EXPECT_EQ(sb.recommendMask(99, 0), ""); // function never flipped
    EXPECT_EQ(sb.totalFlips(), 5u);

    const fleet::VariantOutcome *o = sb.outcome(11, "a", 0);
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->flips, 2u);
    EXPECT_EQ(o->wins, 2u);
    EXPECT_NEAR(o->score(), 0.3, 1e-9);
    EXPECT_EQ(sb.outcome(11, "zzz", 0), nullptr);
}

TEST(Scoreboard, TiesBreakTowardTheSmallerMaskKey)
{
    fleet::VariantScoreboard sb;
    sb.recordFlip(flip(4, "bb", 0, 1.0, 1.2));
    sb.recordFlip(flip(4, "aa", 0, 1.0, 1.2)); // same score
    EXPECT_EQ(sb.recommendMask(4, 0), "aa");
}

TEST(Scoreboard, JsonIsStableAndListsRecommendations)
{
    fleet::VariantScoreboard sb;
    sb.recordFlip(flip(7, "m1", 0, 1.0, 1.1));
    sb.recordFlip(flip(7, "m2", 0, 1.0, 0.9));
    std::string j = sb.toJson();
    EXPECT_EQ(j, sb.toJson());
    EXPECT_NE(j.find("\"recommendations\""), std::string::npos);
    EXPECT_NE(j.find("\"m1\""), std::string::npos);
    EXPECT_NE(j.find("\"total_flips\": 2"), std::string::npos);
}

// ---------------------------------------------------------------- //
//                Fleet integration: profiled runs                  //
// ---------------------------------------------------------------- //

class FleetProfileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::metrics().reset();
        obs::tracer().clear();
        obs::tracer().setEnabled(false);
    }

    void
    TearDown() override
    {
        obs::tracer().setEnabled(false);
        obs::tracer().clear();
        obs::metrics().reset();
    }
};

fleet::FleetConfig
profiledConfig()
{
    fleet::FleetConfig cfg;
    cfg.numServers = 3;
    cfg.meanRequestMs = 1.0;
    cfg.telemetry.enabled = true;
    cfg.telemetry.profiling = true;
    return cfg;
}

TEST_F(FleetProfileTest, ProfilingOffKeepsThePlaneEmpty)
{
    fleet::FleetConfig cfg = profiledConfig();
    cfg.telemetry.profiling = false;
    fleet::FleetSim sim(cfg);
    sim.run(20.0);
    sim.flushTelemetry();
    ASSERT_NE(sim.telemetry(), nullptr);
    EXPECT_TRUE(sim.telemetry()->fleetProfile().empty());
    EXPECT_TRUE(sim.telemetry()->scoreboard().empty());
    for (const fleet::FleetWindow &w : sim.telemetry()->windows()) {
        EXPECT_EQ(w.profileSamples, 0u);
        EXPECT_EQ(w.flipRecords, 0u);
    }
}

TEST_F(FleetProfileTest, SamplesCarryVariantMasksAndFlipsScore)
{
    fleet::FleetSim sim(profiledConfig());
    // Long enough for the deploy stream to install variants and for
    // PC samples to land inside their code ranges.
    sim.run(120.0);
    sim.flushTelemetry();
    const fleet::TelemetryHub &hub = *sim.telemetry();

    // Samples landed and the hub's windows account for all of them.
    const obs::Profile &prof = hub.fleetProfile();
    ASSERT_FALSE(prof.empty());
    uint64_t window_samples = 0, window_flips = 0;
    for (const fleet::FleetWindow &w : hub.windows()) {
        window_samples += w.profileSamples;
        window_flips += w.flipRecords;
    }
    EXPECT_EQ(window_samples, prof.totalSamples());
    EXPECT_EQ(window_flips, hub.scoreboard().totalFlips());

    // The deploy stream installs variants, so some samples must be
    // attributed to a non-empty NT-mask, and each such bucket must
    // name a real function (hash != 0).
    bool variant_bucket = false;
    for (const auto &[k, c] : prof.entries()) {
        (void)c;
        if (!k.mask.empty()) {
            variant_bucket = true;
            EXPECT_NE(k.funcHash, 0u);
        }
    }
    EXPECT_TRUE(variant_bucket);

    // Flip experiments matured into the scoreboard, and the hottest
    // function was named (the profiler knows the binary's symbols).
    EXPECT_GT(hub.scoreboard().totalFlips(), 0u);
    uint64_t hot = prof.hottestFunction();
    ASSERT_NE(hot, 0u);
    EXPECT_NE(prof.nameOf(hot),
              strformat("f%llx",
                        static_cast<unsigned long long>(hot)))
        << "hottest function stayed an anonymous hash";
    // A recommendation exists for at least one flipped bucket.
    const auto &outcomes = hub.scoreboard().outcomes();
    ASSERT_FALSE(outcomes.empty());
    const obs::ProfileKey &first = outcomes.begin()->first;
    EXPECT_FALSE(
        hub.scoreboard().recommendMask(first.funcHash, first.phase)
            .empty());
}

TEST_F(FleetProfileTest, ScrapePaysForProfilePayloadBytes)
{
    fleet::FleetConfig with = profiledConfig();
    fleet::FleetConfig without = profiledConfig();
    without.telemetry.profiling = false;
    auto scrapeBytes = [](const fleet::FleetConfig &cfg) {
        obs::metrics().reset();
        fleet::FleetSim sim(cfg);
        sim.run(40.0);
        sim.flushTelemetry();
        return sim.telemetry()->scrapeBytesTotal();
    };
    // Shipping profile entries and flip records costs wire bytes;
    // the profiled fleet's scrape payload must be strictly larger.
    EXPECT_GT(scrapeBytes(with), scrapeBytes(without));
}

TEST_F(FleetProfileTest, ExportsByteIdenticalAcrossRepeatRuns)
{
    auto runOnce = []() {
        obs::metrics().reset();
        fleet::FleetSim sim(profiledConfig());
        sim.run(40.0);
        sim.flushTelemetry();
        const fleet::TelemetryHub &hub = *sim.telemetry();
        return hub.fleetProfile().toJson() + "\n---\n" +
            hub.fleetProfile().folded() + "\n---\n" +
            hub.scoreboard().toJson() + "\n---\n" + hub.toJson();
    };
    std::string first = runOnce();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, runOnce()); // repeatable
    EXPECT_NE(first.find("\"profile\""), std::string::npos);
    EXPECT_NE(first.find("\"scoreboard\""), std::string::npos);
}

} // namespace
} // namespace protean
