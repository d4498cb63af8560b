/**
 * @file
 * Tests for the observability layer: the metrics registry, the
 * cycle-stamped tracer, machine clock registration, and the
 * acceptance property that two identical runs produce byte-identical
 * exports.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "datacenter/experiment.h"
#include "obs/hdr.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "sim/machine.h"

namespace protean {
namespace obs {
namespace {

/** Every test starts from a clean global registry/tracer. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        metrics().reset();
        tracer().clear();
        tracer().setEnabled(true);
    }

    void
    TearDown() override
    {
        tracer().setEnabled(false);
        tracer().clear();
        metrics().reset();
    }
};

TEST_F(ObsTest, CounterFindOrCreateAndInc)
{
    Counter &c = metrics().counter("runtime.test.events");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name -> same handle (hot paths cache the pointer).
    EXPECT_EQ(&metrics().counter("runtime.test.events"), &c);
    EXPECT_EQ(metrics().counter("runtime.test.events").value(), 42u);
}

TEST_F(ObsTest, GaugeKeepsLastValue)
{
    Gauge &g = metrics().gauge("sim.test.ipc");
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    g.set(1.5);
    g.set(0.25);
    EXPECT_DOUBLE_EQ(metrics().gauge("sim.test.ipc").value(), 0.25);
}

TEST_F(ObsTest, HistogramRecordsExactSmallValues)
{
    HdrHistogram &h = metrics().histogram("t.lat");
    h.observe(0.4);  // rounds to 0
    h.observe(1.0);
    h.observe(1.4);  // rounds to 1
    h.observe(63.0); // last exact unit bucket
    h.observe(1e9);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.sum(), 0u + 1u + 1u + 63u + 1'000'000'000u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 1'000'000'000u);
    // Values < 64 are exact; p50 over {0,1,1,63,1e9} is 1.
    EXPECT_EQ(h.quantile(0.5), 1u);
    EXPECT_EQ(&metrics().histogram("t.lat"), &h);
}

TEST(HdrHistogramTest, EmptyHistogram)
{
    HdrHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.quantile(0.999), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_TRUE(h.nonZeroBuckets().empty());
}

TEST(HdrHistogramTest, SingleSampleEveryQuantile)
{
    HdrHistogram h;
    h.record(777);
    EXPECT_EQ(h.total(), 1u);
    // Every quantile of a single sample is that sample (the bucket
    // edge clamps to the exact max).
    for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 0.999, 1.0})
        EXPECT_EQ(h.quantile(q), 777u) << q;
    EXPECT_EQ(h.minValue(), 777u);
    EXPECT_EQ(h.maxValue(), 777u);
}

TEST(HdrHistogramTest, BucketLayoutAndEdges)
{
    // Unit buckets below 64.
    for (uint64_t v : {0ull, 1ull, 63ull}) {
        uint32_t i = HdrHistogram::indexFor(v);
        EXPECT_EQ(HdrHistogram::lowerEdge(i), v);
        EXPECT_EQ(HdrHistogram::upperEdge(i), v);
    }
    // First octave: width-2 buckets.
    EXPECT_EQ(HdrHistogram::indexFor(64), 64u);
    EXPECT_EQ(HdrHistogram::lowerEdge(64), 64u);
    EXPECT_EQ(HdrHistogram::upperEdge(64), 65u);
    EXPECT_EQ(HdrHistogram::indexFor(65), 64u);
    EXPECT_EQ(HdrHistogram::indexFor(127),
              HdrHistogram::indexFor(126));
    // Every value maps inside its bucket's [lower, upper] range.
    for (uint64_t v = 1; v < (1ull << 40); v = v * 3 + 1) {
        uint32_t i = HdrHistogram::indexFor(v);
        EXPECT_LE(HdrHistogram::lowerEdge(i), v) << v;
        EXPECT_GE(HdrHistogram::upperEdge(i), v) << v;
        // Relative bucket error <= 1/32.
        if (v >= 64) {
            EXPECT_LE(HdrHistogram::upperEdge(i) -
                          HdrHistogram::lowerEdge(i) + 1,
                      v / 32 + 1)
                << v;
        }
    }
}

TEST(HdrHistogramTest, OverflowBucketSaturates)
{
    HdrHistogram h;
    h.record(UINT64_MAX);
    h.observe(1e30); // far beyond uint64 -> saturates, not lost
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.maxValue(), UINT64_MAX);
    EXPECT_EQ(h.quantile(1.0), UINT64_MAX);
    uint32_t top = HdrHistogram::indexFor(UINT64_MAX);
    EXPECT_EQ(top, HdrHistogram::kNumBuckets - 1);
    EXPECT_EQ(HdrHistogram::upperEdge(top), UINT64_MAX);
}

TEST(HdrHistogramTest, MergeMatchesDirectRecording)
{
    // Merging per-server histograms then querying must equal
    // querying one histogram that saw every sample: the telemetry
    // plane's core property.
    HdrHistogram a, b, direct;
    for (uint64_t v = 1; v < 2'000'000; v = v * 2 + 17) {
        a.record(v, 3);
        direct.record(v, 3);
    }
    for (uint64_t v = 5; v < 900'000; v = v * 3 + 1) {
        b.record(v);
        direct.record(v);
    }
    HdrHistogram merged;
    merged.merge(a);
    merged.merge(b);
    EXPECT_EQ(merged.total(), direct.total());
    EXPECT_EQ(merged.sum(), direct.sum());
    EXPECT_EQ(merged.minValue(), direct.minValue());
    EXPECT_EQ(merged.maxValue(), direct.maxValue());
    for (double q : {0.5, 0.95, 0.99, 0.999})
        EXPECT_EQ(merged.quantile(q), direct.quantile(q)) << q;
    // Merging an empty histogram changes nothing.
    merged.merge(HdrHistogram());
    EXPECT_EQ(merged.total(), direct.total());
    // clear() resets to the empty state.
    merged.clear();
    EXPECT_TRUE(merged.empty());
    EXPECT_EQ(merged.quantile(0.99), 0u);
}

TEST(HdrHistogramTest, QuantileWithinRelativeErrorBound)
{
    HdrHistogram h;
    for (uint64_t v = 1; v <= 100'000; ++v)
        h.record(v);
    // True p50 = 50000; bucketed answer must be within 1/32 above.
    for (double q : {0.5, 0.95, 0.99, 0.999}) {
        uint64_t truth =
            static_cast<uint64_t>(std::ceil(q * 100'000));
        uint64_t got = h.quantile(q);
        EXPECT_GE(got, truth) << q;
        EXPECT_LE(got, truth + truth / 32 + 1) << q;
    }
}

TEST(SloMonitorTest, MultiWindowBurnRaisesAndClears)
{
    SloMonitor mon;
    SloSpec spec;
    spec.name = "lat_p99";
    spec.field = "p99";
    spec.threshold = 100.0;
    spec.budget = 0.25; // 1 bad window in 4 is tolerated
    spec.shortWindows = 2;
    spec.longWindows = 4;
    spec.burnThreshold = 1.5;
    mon.addSpec(spec);

    // Good windows: silent.
    for (uint64_t w = 0; w < 4; ++w) {
        auto raised = mon.observeWindow(w, {{"p99", 50.0}});
        EXPECT_TRUE(raised.empty()) << w;
    }
    EXPECT_FALSE(mon.firing("lat_p99"));
    EXPECT_FALSE(mon.everFired("lat_p99"));

    // One bad window: short burn = (1/2)/0.25 = 2 >= 1.5 but long
    // burn = (1/4)/0.25 = 1 < 1.5 -> still silent (blip tolerance).
    auto raised = mon.observeWindow(4, {{"p99", 500.0}});
    EXPECT_TRUE(raised.empty());

    // Second consecutive bad window: long burn = 2 >= 1.5 -> raise.
    raised = mon.observeWindow(5, {{"p99", 500.0}});
    ASSERT_EQ(raised.size(), 1u);
    EXPECT_EQ(raised[0], "lat_p99");
    EXPECT_TRUE(mon.firing("lat_p99"));
    ASSERT_EQ(mon.alerts().size(), 1u);
    EXPECT_EQ(mon.alerts()[0].raisedWindow, 5u);
    EXPECT_EQ(mon.alerts()[0].clearedWindow, UINT64_MAX);

    // Still bad: same episode, no duplicate alert.
    raised = mon.observeWindow(6, {{"p99", 500.0}});
    EXPECT_TRUE(raised.empty());
    EXPECT_EQ(mon.alerts().size(), 1u);

    // Two good windows drain the short burn -> alert clears.
    mon.observeWindow(7, {{"p99", 10.0}});
    mon.observeWindow(8, {{"p99", 10.0}});
    EXPECT_FALSE(mon.firing("lat_p99"));
    EXPECT_EQ(mon.alerts()[0].clearedWindow, 8u);
    EXPECT_TRUE(mon.everFired("lat_p99"));
    EXPECT_EQ(mon.badWindows("lat_p99"), 3u);
}

TEST(SloMonitorTest, MissingFieldCountsAsGood)
{
    SloMonitor mon;
    SloSpec spec;
    spec.name = "s";
    spec.field = "absent";
    spec.threshold = 0.0;
    spec.budget = 0.01;
    spec.shortWindows = 1;
    spec.longWindows = 1;
    mon.addSpec(spec);
    for (uint64_t w = 0; w < 10; ++w)
        EXPECT_TRUE(mon.observeWindow(w, {{"other", 1e9}}).empty());
    EXPECT_FALSE(mon.everFired("s"));
    EXPECT_EQ(mon.badWindows("s"), 0u);
}

TEST(SloMonitorTest, JsonStableAndCompletes)
{
    SloMonitor mon;
    SloSpec spec;
    spec.name = "avail";
    spec.field = "crashes";
    spec.threshold = 0.0;
    spec.budget = 0.05;
    spec.shortWindows = 1;
    spec.longWindows = 2;
    mon.addSpec(spec);
    mon.observeWindow(0, {{"crashes", 0.0}});
    mon.observeWindow(1, {{"crashes", 3.0}});
    std::string json = mon.toJson();
    EXPECT_EQ(json, mon.toJson());
    EXPECT_NE(json.find("\"slo\": \"avail\""), std::string::npos);
    EXPECT_NE(json.find("\"raised_window\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"cleared_window\": null"),
              std::string::npos);
    EXPECT_NE(json.find("\"bad_windows\": 1"), std::string::npos);
}

TEST_F(ObsTest, JsonNumberDeterministicAndRoundTrips)
{
    EXPECT_EQ(detail::jsonNumber(3.0), "3");
    EXPECT_EQ(detail::jsonNumber(-2.0), "-2");
    EXPECT_EQ(detail::jsonNumber(0.5), "0.5");
    for (double v : {0.1, 1.0 / 3.0, 1e-12, 123456.789}) {
        std::string s = detail::jsonNumber(v);
        EXPECT_EQ(s, detail::jsonNumber(v));
        EXPECT_DOUBLE_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

TEST_F(ObsTest, JsonEscapeControlCharacters)
{
    EXPECT_EQ(detail::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(detail::jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(detail::jsonEscape("plain.name"), "plain.name");
}

TEST_F(ObsTest, RegistryJsonSortedAndStable)
{
    // Created out of order; exported keys must be sorted.
    metrics().counter("z.last").inc(7);
    metrics().counter("a.first").inc();
    metrics().gauge("m.middle").set(2.5);
    metrics().histogram("h.one").observe(3.0);

    std::string json = metrics().toJson();
    EXPECT_LT(json.find("\"a.first\": 1"), json.find("\"z.last\": 7"));
    EXPECT_NE(json.find("\"m.middle\": 2.5"), std::string::npos);
    // Histograms export stable quantile summaries with a fixed,
    // alphabetical key order.
    EXPECT_NE(json.find("\"h.one\": {\"buckets\": [[3,3,1]], "
                        "\"max\": 3, \"min\": 3, \"p50\": 3, "
                        "\"p95\": 3, \"p99\": 3, \"p999\": 3, "
                        "\"sum\": 3, \"total\": 1}"),
              std::string::npos);
    // Two snapshots of the same state are byte-identical.
    EXPECT_EQ(json, metrics().toJson());
}

TEST_F(ObsTest, RegistryResetDropsEverything)
{
    metrics().counter("x").inc();
    metrics().gauge("y").set(1.0);
    metrics().histogram("z").observe(1.0);
    EXPECT_EQ(metrics().size(), 3u);
    metrics().reset();
    EXPECT_EQ(metrics().size(), 0u);
    EXPECT_EQ(metrics().counter("x").value(), 0u);
}

TEST_F(ObsTest, TracerDisabledRecordsNothing)
{
    tracer().setEnabled(false);
    tracer().instant("lane", "event");
    tracer().counter("lane", "value", 1.0);
    tracer().complete("lane", "span", 0, 10);
    EXPECT_EQ(tracer().eventCount(), 0u);
}

TEST_F(ObsTest, TracerChromeExportShape)
{
    uint64_t t = 0;
    tracer().setClock([&] { return t; }, &t);

    t = 5;
    tracer().instant("runtime", "attach", "\"functions\":3");
    tracer().complete("pc3d", "search", 2, 9, "\"windows\":4");
    t = 7;
    tracer().counter("runtime", "nap", 0.25);
    tracer().clearClock(&t);
    EXPECT_EQ(tracer().eventCount(), 3u);

    std::string json = tracer().toChromeJson();
    // Lane metadata in first-use order: runtime=0, pc3d=1.
    EXPECT_NE(json.find("{\"name\":\"thread_name\",\"ph\":\"M\","
                        "\"pid\":1,\"tid\":0,\"args\":{\"name\":"
                        "\"runtime\"}}"),
              std::string::npos);
    EXPECT_NE(json.find("\"tid\":1,\"args\":{\"name\":\"pc3d\"}"),
              std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"attach\",\"pid\":1,\"tid\":0,"
                        "\"ts\":5,\"ph\":\"i\",\"s\":\"t\","
                        "\"args\":{\"functions\":3}}"),
              std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"search\",\"pid\":1,\"tid\":1,"
                        "\"ts\":2,\"ph\":\"X\",\"dur\":7,"
                        "\"args\":{\"windows\":4}}"),
              std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"nap\",\"pid\":1,\"tid\":0,"
                        "\"ts\":7,\"ph\":\"C\","
                        "\"args\":{\"value\":0.25}}"),
              std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("],\"displayTimeUnit\":\"ns\"}"),
              std::string::npos);
}

TEST_F(ObsTest, TracerClearKeepsClock)
{
    uint64_t t = 11;
    tracer().setClock([&] { return t; }, &t);
    tracer().instant("a", "e");
    tracer().clear();
    EXPECT_EQ(tracer().eventCount(), 0u);
    EXPECT_EQ(tracer().now(), 11u);
    tracer().clearClock(&t);
    EXPECT_EQ(tracer().now(), 0u);
}

TEST_F(ObsTest, ClockStackingNewestWinsRemovalRestores)
{
    int a = 0, b = 0;
    tracer().setClock([] { return uint64_t{10}; }, &a);
    EXPECT_EQ(tracer().now(), 10u);
    tracer().setClock([] { return uint64_t{20}; }, &b);
    EXPECT_EQ(tracer().now(), 20u);
    // Removing the newest restores the previous owner.
    tracer().clearClock(&b);
    EXPECT_EQ(tracer().now(), 10u);
    // Removing a non-top owner leaves the top in charge.
    tracer().setClock([] { return uint64_t{20}; }, &b);
    tracer().clearClock(&a);
    EXPECT_EQ(tracer().now(), 20u);
    tracer().clearClock(&b);
    EXPECT_EQ(tracer().now(), 0u);
}

TEST_F(ObsTest, MachineRegistersTracerClock)
{
    {
        sim::Machine outer;
        outer.runFor(1000);
        EXPECT_EQ(tracer().now(), outer.now());
        {
            // Nested machines (solo references) take over the clock
            // for their lifetime, then hand it back.
            sim::Machine inner;
            inner.runFor(5);
            EXPECT_EQ(tracer().now(), inner.now());
        }
        EXPECT_EQ(tracer().now(), outer.now());
    }
    EXPECT_EQ(tracer().now(), 0u);
}

/** One small PC3D colocation with full observability on. */
std::pair<std::string, std::string>
tracedColocation()
{
    metrics().reset();
    tracer().clear();
    tracer().setEnabled(true);

    datacenter::ColoConfig cfg;
    cfg.service = "web-search";
    cfg.batch = "libquantum";
    cfg.qosTarget = 0.95;
    cfg.qps = 120.0;
    cfg.system = datacenter::System::Pc3d;
    cfg.settleMs = 1500.0;
    cfg.measureMs = 800.0;
    datacenter::runColocationTrace(cfg, 200.0);

    return {tracer().toChromeJson(), metrics().toJson()};
}

TEST_F(ObsTest, IdenticalRunsExportByteIdenticalFiles)
{
    auto [trace1, metrics1] = tracedColocation();
    auto [trace2, metrics2] = tracedColocation();
    EXPECT_EQ(trace1, trace2);
    EXPECT_EQ(metrics1, metrics2);

    // And the run actually recorded the instrumented subsystems.
    EXPECT_NE(trace1.find("\"name\":\"experiment\""),
              std::string::npos);
    EXPECT_NE(trace1.find("\"name\":\"sim.core0\""),
              std::string::npos);
    EXPECT_NE(trace1.find("\"name\":\"attach\""), std::string::npos);
    EXPECT_NE(metrics1.find("\"runtime.ticks\""), std::string::npos);
    EXPECT_NE(metrics1.find("\"sim.l3.misses\""), std::string::npos);
    EXPECT_NE(metrics1.find("\"runtime.compile.cycles_hist\""),
              std::string::npos);
}

} // namespace
} // namespace obs
} // namespace protean
