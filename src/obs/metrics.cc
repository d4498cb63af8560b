#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

#include "support/logging.h"

namespace protean {
namespace obs {

namespace detail {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    // %.17g round-trips every double and is deterministic for a
    // given bit pattern; trim to a plain integer form when exact.
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        return strformat("%lld",
                         static_cast<long long>(v));
    }
    return strformat("%.17g", v);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strformat("\\u%04x", c);
            else
                out.push_back(c);
        }
    }
    return out;
}

std::string
hdrJson(const HdrHistogram &h)
{
    std::string buckets;
    for (const HdrHistogram::Bucket &b : h.nonZeroBuckets()) {
        buckets += strformat(
            "%s[%llu,%llu,%llu]", buckets.empty() ? "" : ",",
            static_cast<unsigned long long>(b.lower),
            static_cast<unsigned long long>(b.upper),
            static_cast<unsigned long long>(b.count));
    }
    return strformat(
        "{\"buckets\": [%s], \"max\": %llu, \"min\": %llu, "
        "\"p50\": %llu, \"p95\": %llu, \"p99\": %llu, "
        "\"p999\": %llu, \"sum\": %llu, \"total\": %llu}",
        buckets.c_str(),
        static_cast<unsigned long long>(h.maxValue()),
        static_cast<unsigned long long>(h.minValue()),
        static_cast<unsigned long long>(h.quantile(0.50)),
        static_cast<unsigned long long>(h.quantile(0.95)),
        static_cast<unsigned long long>(h.quantile(0.99)),
        static_cast<unsigned long long>(h.quantile(0.999)),
        static_cast<unsigned long long>(h.sum()),
        static_cast<unsigned long long>(h.total()));
}

} // namespace detail

Counter &
MetricsRegistry::counter(const std::string &name)
{
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

HdrHistogram &
MetricsRegistry::histogram(const std::string &name)
{
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<HdrHistogram>();
    return *slot;
}

std::string
MetricsRegistry::toJson() const
{
    using detail::jsonEscape;
    using detail::jsonNumber;

    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        out += strformat("%s\n    \"%s\": %llu", first ? "" : ",",
                         jsonEscape(name).c_str(),
                         static_cast<unsigned long long>(c->value()));
        first = false;
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto &[name, g] : gauges_) {
        out += strformat("%s\n    \"%s\": %s", first ? "" : ",",
                         jsonEscape(name).c_str(),
                         jsonNumber(g->value()).c_str());
        first = false;
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms_) {
        out += strformat("%s\n    \"%s\": %s", first ? "" : ",",
                         jsonEscape(name).c_str(),
                         detail::hdrJson(*h).c_str());
        first = false;
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

void
MetricsRegistry::writeJson(const std::string &path) const
{
    std::string json = toJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("metrics: cannot open %s for writing", path.c_str());
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    debug("metrics: wrote %zu metrics to %s", size(), path.c_str());
}

void
MetricsRegistry::reset()
{
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

MetricsRegistry &
metrics()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace obs
} // namespace protean
