/**
 * @file
 * Metrics registry: named counters, gauges, and HDR log-bucketed
 * histograms with hierarchical dotted names (`runtime.compile.cycles`,
 * `sim.l3.misses`, `pc3d.search.steps`).
 *
 * Increments are cheap inline operations on handles that stay valid
 * for the registry's lifetime, so hot paths can look a metric up once
 * and update it directly. Snapshots export to JSON with sorted,
 * stable keys: two identical (deterministic) runs produce
 * byte-identical files. Histogram exports carry deterministic
 * quantile summaries (p50/p95/p99/p999) computed from the bucket
 * layout — see obs/hdr.h.
 */

#ifndef PROTEAN_OBS_METRICS_H
#define PROTEAN_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/hdr.h"

namespace protean {
namespace obs {

/** Monotonic counter. */
class Counter
{
  public:
    void inc(uint64_t n = 1) { value_ += n; }
    uint64_t value() const { return value_; }

  private:
    uint64_t value_ = 0;
};

/** Last-value gauge. */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Named metrics, hierarchically dotted, exported with stable keys;
 *  handles stay valid until reset(). */
class MetricsRegistry
{
  public:
    /** Find-or-create; the reference stays valid until reset(). */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /** Find-or-create an HDR log-bucketed histogram (obs/hdr.h):
     *  values below 64 record exactly, larger ones with <=1/32
     *  relative error, with no per-metric bucket configuration. */
    HdrHistogram &histogram(const std::string &name);

    /** Snapshot as a JSON object with sorted keys. */
    std::string toJson() const;

    /** Write the snapshot; fatal on I/O failure. */
    void writeJson(const std::string &path) const;

    /** Drop every metric (test isolation between runs). Invalidates
     *  previously returned handles — no instrumented object may be
     *  live across a reset. */
    void reset();

    size_t size() const
    {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

  private:
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<HdrHistogram>> histograms_;
};

/** The process-wide registry used by all instrumentation. */
MetricsRegistry &metrics();

namespace detail {
/** Deterministic JSON number formatting (shortest round-trip). */
std::string jsonNumber(double v);
/** JSON string escaping. */
std::string jsonEscape(const std::string &s);
/** HDR histogram as a JSON object with fixed key order:
 *  {"buckets": [[lo,hi,count],...], "max", "min", "p50", "p95",
 *   "p99", "p999", "sum", "total"}. Byte-stable for a given state. */
std::string hdrJson(const HdrHistogram &h);
} // namespace detail

} // namespace obs
} // namespace protean

#endif // PROTEAN_OBS_METRICS_H
