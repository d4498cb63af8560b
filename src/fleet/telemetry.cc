#include "fleet/telemetry.h"

#include <cstdio>

#include "fleet/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runtime.h"
#include "support/logging.h"

namespace protean {
namespace fleet {

std::map<std::string, double>
FleetWindow::fields() const
{
    std::map<std::string, double> f;
    f["breaker_opens"] = static_cast<double>(breakerOpens);
    f["breaker_short_circuits"] =
        static_cast<double>(breakerShortCircuits);
    f["breakers_open"] = static_cast<double>(breakersOpen);
    f["coalesced"] = static_cast<double>(coalesced);
    f["corrupt_rejects"] = static_cast<double>(corruptRejects);
    f["corrupt_responses"] = static_cast<double>(corruptResponses);
    f["crashes"] = static_cast<double>(crashes);
    f["delayed"] = static_cast<double>(delayed);
    f["dropped"] = static_cast<double>(dropped);
    f["failed"] = static_cast<double>(failed);
    f["flip_count"] = static_cast<double>(flip.total());
    f["flip_effect_entry_count"] =
        static_cast<double>(flipEffectEntry.total());
    f["flip_effect_entry_max"] =
        static_cast<double>(flipEffectEntry.maxValue());
    f["flip_effect_entry_p99"] =
        static_cast<double>(flipEffectEntry.quantile(0.99));
    f["flip_effect_osr_count"] =
        static_cast<double>(flipEffectOsr.total());
    f["flip_effect_osr_max"] =
        static_cast<double>(flipEffectOsr.maxValue());
    f["flip_effect_osr_p99"] =
        static_cast<double>(flipEffectOsr.quantile(0.99));
    f["flip_max"] = static_cast<double>(flip.maxValue());
    f["flip_p50"] = static_cast<double>(flip.quantile(0.50));
    f["flip_p95"] = static_cast<double>(flip.quantile(0.95));
    f["flip_p99"] = static_cast<double>(flip.quantile(0.99));
    f["flip_p999"] = static_cast<double>(flip.quantile(0.999));
    f["hedges"] = static_cast<double>(hedges);
    f["hit_rate"] = hitRate;
    f["hits"] = static_cast<double>(hits);
    f["local_fallbacks"] = static_cast<double>(localFallbacks);
    f["flip_records"] = static_cast<double>(flipRecords);
    f["misses"] = static_cast<double>(misses);
    f["profile_samples"] = static_cast<double>(profileSamples);
    f["replica_routes"] = static_cast<double>(replicaRoutes);
    f["requests"] = static_cast<double>(requests);
    f["retries"] = static_cast<double>(retries);
    f["scrape_bytes"] = static_cast<double>(scrapeBytes);
    f["server_pauses"] = static_cast<double>(serverPauses);
    f["stranded"] = static_cast<double>(stranded);
    f["timeouts"] = static_cast<double>(timeouts);
    f["validate_cycles"] = static_cast<double>(validateCycles);
    f["validate_escalate"] =
        static_cast<double>(validateEscalations);
    f["validate_fail"] = static_cast<double>(validateFails);
    f["validate_pass"] = static_cast<double>(validatePasses);
    return f;
}

TelemetryHub::TelemetryHub(const TelemetryConfig &cfg,
                           CompileService &svc, Cluster &cluster)
    : cfg_(cfg), svc_(svc), cluster_(cluster)
{
    if (cfg_.windowCycles == 0)
        fatal("TelemetryHub: windowCycles must be positive");
}

void
TelemetryHub::addServer(RemoteBackend *backend, sim::Machine *machine,
                        runtime::VariantProfiler *profiler,
                        runtime::ProteanRuntime *rt)
{
    ServerSlot slot;
    slot.backend = backend;
    slot.machine = machine;
    slot.profiler = profiler;
    slot.rt = rt;
    servers_.push_back(std::move(slot));
}

void
TelemetryHub::onBarrier(uint64_t cycle)
{
    // Windows close at the first barrier at or past each boundary;
    // the barrier cycle becomes the window's recorded end, so window
    // edges are identical across repeat runs (barriers are).
    while (cycle >= windowStart_ + cfg_.windowCycles)
        closeWindow(cycle);
}

void
TelemetryHub::flush(uint64_t cycle)
{
    if (cycle > windowStart_)
        closeWindow(cycle);
}

void
TelemetryHub::closeWindow(uint64_t cycle)
{
    FleetWindow w;
    w.index = windows_.size();
    w.startCycle = windowStart_;
    w.endCycle = std::min(cycle, windowStart_ + cfg_.windowCycles);

    // ----- service deltas -----
    const ServiceStats &s = svc_.stats();
    w.requests = s.requests - prevService_.requests;
    w.hits = s.hits - prevService_.hits;
    w.misses = s.misses - prevService_.misses;
    w.coalesced = s.coalesced - prevService_.coalesced;
    w.dropped = s.dropped - prevService_.dropped;
    w.delayed = s.delayed - prevService_.delayed;
    w.failed = s.failed - prevService_.failed;
    w.crashes = s.crashes - prevService_.crashes;
    w.replicaRoutes = s.replicaRoutes - prevService_.replicaRoutes;
    w.corruptRejects =
        s.corruptRejects - prevService_.corruptRejects;
    w.corruptResponses =
        s.corruptResponses - prevService_.corruptResponses;
    w.validatePasses =
        s.validatePasses - prevService_.validatePasses;
    w.validateFails = s.validateFails - prevService_.validateFails;
    w.validateEscalations =
        s.validateEscalations - prevService_.validateEscalations;
    w.validateCycles =
        s.validateCycles - prevService_.validateCycles;
    // Corrupt-rejected hits are classified non-hits: the key was
    // known but its payload could not be served.
    uint64_t classified =
        w.hits + w.misses + w.coalesced + w.corruptRejects;
    w.hitRate = classified == 0 ?
        0.0 :
        static_cast<double>(w.hits + w.coalesced) /
            static_cast<double>(classified);
    prevService_ = s;

    // ----- per-shard health at the close -----
    uint32_t shards = svc_.config().numShards;
    w.shardUp.reserve(shards);
    w.shardOccupancy.reserve(shards);
    for (uint32_t sh = 0; sh < shards; ++sh) {
        w.shardUp.push_back(svc_.shardUp(sh, w.endCycle) ? 1 : 0);
        w.shardOccupancy.push_back(svc_.shardOccupancy(sh));
    }

    // ----- per-server scrape: client deltas + flip histograms -----
    const NetworkModel &net = svc_.config().net;
    for (ServerSlot &slot : servers_) {
        uint64_t payload = cfg_.scrapeBaseBytes;
        if (slot.backend) {
            RemoteBackend &b = *slot.backend;
            const ClientStats &c = b.clientStats();
            w.timeouts += c.timeouts - slot.prev.timeouts;
            w.retries += c.retries - slot.prev.retries;
            w.hedges += c.hedges - slot.prev.hedges;
            w.localFallbacks +=
                c.localFallbacks - slot.prev.localFallbacks;
            w.breakerShortCircuits += c.breakerShortCircuits -
                slot.prev.breakerShortCircuits;
            w.breakerOpens +=
                b.breaker().opens() - slot.prevOpens;
            slot.prev = c;
            slot.prevOpens = b.breaker().opens();
            if (b.breaker().state() !=
                CircuitBreaker::State::Closed)
                ++w.breakersOpen;
            if (stallBound_ != UINT64_MAX)
                w.stranded += b.stalledCount(w.endCycle, stallBound_);

            obs::HdrHistogram server_flip;
            b.drainFlipWindow(server_flip);
            payload += cfg_.scrapeBucketBytes *
                server_flip.nonZeroBuckets().size();
            w.flip.merge(server_flip);
        }
        if (slot.rt) {
            // Flip-*effect* latencies (request → new code executing)
            // drained per server and fleet-merged, split entry/OSR —
            // the series the hot-loop scenario's tail lives in.
            obs::HdrHistogram fe_entry, fe_osr;
            slot.rt->drainFlipEffectWindow(fe_entry, fe_osr);
            payload += cfg_.scrapeBucketBytes *
                (fe_entry.nonZeroBuckets().size() +
                 fe_osr.nonZeroBuckets().size());
            w.flipEffectEntry.merge(fe_entry);
            w.flipEffectOsr.merge(fe_osr);
        }
        if (cfg_.profiling && slot.profiler) {
            // Drain the server's continuous profile and flip
            // ledger; both are payload like any other scrape data.
            obs::Profile server_profile;
            slot.profiler->drainProfile(server_profile);
            payload += cfg_.scrapeProfileEntryBytes *
                server_profile.entries().size();
            w.profileSamples += server_profile.totalSamples();
            profile_.merge(server_profile);

            std::vector<runtime::FlipRecord> records =
                slot.profiler->drainLedger();
            payload += cfg_.scrapeFlipBytes * records.size();
            w.flipRecords += records.size();
            for (const runtime::FlipRecord &r : records)
                scoreboard_.recordFlip(r);
        }
        // The delta rides the modeled network; serialization steals
        // real cycles from the server like any other runtime agent.
        w.scrapeBytes += payload;
        w.scrapeNetworkCycles += net.requestLatencyCycles +
            net.transferCycles(payload);
        if (slot.machine && cfg_.scrapeCpuCycles > 0) {
            slot.machine->core(cfg_.scrapeCore)
                .stealCycles(cfg_.scrapeCpuCycles);
            w.scrapeCpuCycles += cfg_.scrapeCpuCycles;
        }
    }
    scrapeBytes_ += w.scrapeBytes;
    scrapeNetCycles_ += w.scrapeNetworkCycles;
    scrapeCpu_ += w.scrapeCpuCycles;

    uint64_t pauses = cluster_.pausesApplied();
    w.serverPauses = pauses - prevPauses_;
    prevPauses_ = pauses;

    if (obs::tracer().enabled()) {
        obs::tracer().complete(
            "fleet.telemetry",
            strformat("scrape window%llu",
                      static_cast<unsigned long long>(w.index)),
            w.startCycle, w.endCycle,
            strformat("\"bytes\":%llu,\"net_cycles\":%llu,"
                      "\"cpu_cycles\":%llu,\"flip_p99\":%llu",
                      static_cast<unsigned long long>(w.scrapeBytes),
                      static_cast<unsigned long long>(
                          w.scrapeNetworkCycles),
                      static_cast<unsigned long long>(
                          w.scrapeCpuCycles),
                      static_cast<unsigned long long>(
                          w.flip.quantile(0.99))));
    }

    slo_.observeWindow(w.index, w.fields());
    windowStart_ += cfg_.windowCycles;
    if (windowStart_ > w.endCycle)
        windowStart_ = w.endCycle; // flush() of a partial window
    windows_.push_back(std::move(w));
}

obs::HdrHistogram
TelemetryHub::fleetFlip() const
{
    obs::HdrHistogram all;
    for (const FleetWindow &w : windows_)
        all.merge(w.flip);
    return all;
}

obs::HdrHistogram
TelemetryHub::fleetFlipEffectEntry() const
{
    obs::HdrHistogram all;
    for (const FleetWindow &w : windows_)
        all.merge(w.flipEffectEntry);
    return all;
}

obs::HdrHistogram
TelemetryHub::fleetFlipEffectOsr() const
{
    obs::HdrHistogram all;
    for (const FleetWindow &w : windows_)
        all.merge(w.flipEffectOsr);
    return all;
}

std::string
TelemetryHub::toJson() const
{
    using obs::detail::hdrJson;
    using obs::detail::jsonNumber;

    std::string out = strformat(
        "{\n\"config\": {\"profiling\": %s, "
        "\"scrape_base_bytes\": %llu, "
        "\"scrape_bucket_bytes\": %llu, \"scrape_cpu_cycles\": %llu, "
        "\"scrape_flip_bytes\": %llu, "
        "\"scrape_profile_entry_bytes\": %llu, "
        "\"servers\": %zu, \"window_cycles\": %llu},\n",
        cfg_.profiling ? "true" : "false",
        static_cast<unsigned long long>(cfg_.scrapeBaseBytes),
        static_cast<unsigned long long>(cfg_.scrapeBucketBytes),
        static_cast<unsigned long long>(cfg_.scrapeCpuCycles),
        static_cast<unsigned long long>(cfg_.scrapeFlipBytes),
        static_cast<unsigned long long>(cfg_.scrapeProfileEntryBytes),
        servers_.size(),
        static_cast<unsigned long long>(cfg_.windowCycles));
    out += strformat("\"fleet_flip\": %s,\n",
                     hdrJson(fleetFlip()).c_str());
    out += strformat("\"fleet_flip_effect_entry\": %s,\n",
                     hdrJson(fleetFlipEffectEntry()).c_str());
    out += strformat("\"fleet_flip_effect_osr\": %s,\n",
                     hdrJson(fleetFlipEffectOsr()).c_str());
    if (cfg_.profiling) {
        out += "\"profile\": " + profile_.toJson() + ",\n";
        out += "\"scoreboard\": " + scoreboard_.toJson() + ",\n";
    }
    out += strformat(
        "\"scrape\": {\"bytes\": %llu, \"cpu_cycles\": %llu, "
        "\"network_cycles\": %llu},\n",
        static_cast<unsigned long long>(scrapeBytes_),
        static_cast<unsigned long long>(scrapeCpu_),
        static_cast<unsigned long long>(scrapeNetCycles_));
    out += "\"slo\": " + slo_.toJson() + ",\n";
    out += "\"windows\": [";
    for (size_t i = 0; i < windows_.size(); ++i) {
        const FleetWindow &w = windows_[i];
        out += i ? ",\n  " : "\n  ";
        out += strformat(
            "{\"index\": %llu, \"start\": %llu, \"end\": %llu",
            static_cast<unsigned long long>(w.index),
            static_cast<unsigned long long>(w.startCycle),
            static_cast<unsigned long long>(w.endCycle));
        // Scalar fields in the same stable order as fields().
        for (const auto &[name, value] : w.fields()) {
            out += strformat(", \"%s\": %s", name.c_str(),
                             jsonNumber(value).c_str());
        }
        out += ", \"flip\": " + hdrJson(w.flip);
        out += ", \"flip_effect_entry\": " +
            hdrJson(w.flipEffectEntry);
        out += ", \"flip_effect_osr\": " + hdrJson(w.flipEffectOsr);
        out += ", \"shards\": [";
        for (size_t sh = 0; sh < w.shardUp.size(); ++sh) {
            out += strformat(
                "%s[%u,%llu]", sh ? "," : "", w.shardUp[sh],
                static_cast<unsigned long long>(
                    w.shardOccupancy[sh]));
        }
        out += "]}";
    }
    out += windows_.empty() ? "]\n}\n" : "\n]\n}\n";
    return out;
}

void
TelemetryHub::writeJson(const std::string &path) const
{
    std::string json = toJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("telemetry: cannot open %s for writing", path.c_str());
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    debug("telemetry: wrote %zu windows to %s", windows_.size(),
          path.c_str());
}

void
TelemetryHub::exportObsMetrics() const
{
    obs::MetricsRegistry &m = obs::metrics();
    m.gauge("fleet.telemetry.windows")
        .set(static_cast<double>(windows_.size()));
    obs::HdrHistogram flip = fleetFlip();
    m.gauge("fleet.telemetry.flip_p50")
        .set(static_cast<double>(flip.quantile(0.50)));
    m.gauge("fleet.telemetry.flip_p99")
        .set(static_cast<double>(flip.quantile(0.99)));
    m.gauge("fleet.telemetry.flip_p999")
        .set(static_cast<double>(flip.quantile(0.999)));
    obs::HdrHistogram fe_entry = fleetFlipEffectEntry();
    obs::HdrHistogram fe_osr = fleetFlipEffectOsr();
    m.gauge("fleet.telemetry.flip_effect_entry_count")
        .set(static_cast<double>(fe_entry.total()));
    m.gauge("fleet.telemetry.flip_effect_entry_max")
        .set(static_cast<double>(fe_entry.maxValue()));
    m.gauge("fleet.telemetry.flip_effect_osr_count")
        .set(static_cast<double>(fe_osr.total()));
    m.gauge("fleet.telemetry.flip_effect_osr_max")
        .set(static_cast<double>(fe_osr.maxValue()));
    m.gauge("fleet.telemetry.scrape_bytes")
        .set(static_cast<double>(scrapeBytes_));
    m.gauge("fleet.telemetry.scrape_network_cycles")
        .set(static_cast<double>(scrapeNetCycles_));
    m.gauge("fleet.telemetry.scrape_cpu_cycles")
        .set(static_cast<double>(scrapeCpu_));
    m.gauge("fleet.telemetry.slo_alerts")
        .set(static_cast<double>(slo_.alerts().size()));
    if (cfg_.profiling) {
        m.gauge("fleet.telemetry.profile_samples")
            .set(static_cast<double>(profile_.totalSamples()));
        m.gauge("fleet.telemetry.profile_buckets")
            .set(static_cast<double>(profile_.entries().size()));
        m.gauge("fleet.telemetry.flip_records")
            .set(static_cast<double>(scoreboard_.totalFlips()));
    }
}

} // namespace fleet
} // namespace protean
