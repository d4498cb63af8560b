/**
 * @file
 * Fleet telemetry plane: windowed rollups shipped to a hub.
 *
 * The TelemetryHub is the fleet's aggregation point. At cluster
 * barriers it closes fixed-width rollup windows: it snapshots the
 * service's and every client's cumulative counters, takes the delta
 * against the previous window, drains each server's flip-latency
 * HDR histogram (obs/hdr.h) and merges them into one fleet-wide
 * distribution — so per-window fleet p50/p95/p99/p999 flip latency
 * falls out without shipping raw samples anywhere.
 *
 * Scraping is not free, and the model says so: each server pays a
 * CPU cost (cycles stolen from its runtime core, like any other
 * agent) to serialize its delta, and the delta payload rides the
 * existing NetworkModel (latency + bytes/cycle), so the telemetry
 * plane's own overhead is cycle-accounted and visible in the same
 * exports it produces.
 *
 * Every closed window is fed to an embedded obs::SloMonitor, so
 * declarative SLOs (`flip_p99 < N`, `crashes == 0`, ...) raise
 * multi-window burn-rate alerts while the simulation runs.
 *
 * Determinism: the hub only runs at barriers, reading state that
 * machines last touched inside their own quanta; fleet runs
 * therefore produce byte-identical telemetry JSON across repeat
 * runs.
 */

#ifndef PROTEAN_FLEET_TELEMETRY_H
#define PROTEAN_FLEET_TELEMETRY_H

#include <map>
#include <string>
#include <vector>

#include "fleet/client.h"
#include "fleet/scoreboard.h"
#include "fleet/service.h"
#include "obs/hdr.h"
#include "obs/profile.h"
#include "obs/slo.h"
#include "runtime/profiler.h"

namespace protean {

namespace runtime {
class ProteanRuntime;
}

namespace fleet {

class Cluster;

/** Telemetry plane sizing and scrape cost model. */
struct TelemetryConfig
{
    /** Master switch; off = the hub is never built and the hot path
     *  pays nothing. */
    bool enabled = false;
    /** Rollup window width, in cycles (10 simulated ms at the
     *  default 5000 cycles/ms). Windows close at the first cluster
     *  barrier at or past each boundary. */
    uint64_t windowCycles = 50000;
    /** Fixed per-server delta payload (headers + counters), bytes. */
    uint64_t scrapeBaseBytes = 256;
    /** Additional payload per non-empty histogram bucket shipped. */
    uint64_t scrapeBucketBytes = 24;
    /** CPU cycles each server spends serializing its delta, stolen
     *  from its runtime core at the window close. */
    uint64_t scrapeCpuCycles = 150;
    /** Core charged with scrape serialization. */
    uint32_t scrapeCore = 0;
    /** Scrape continuous profiles and flip ledgers too (requires
     *  per-server VariantProfilers; FleetSim enables them when this
     *  is set). */
    bool profiling = false;
    /** Additional payload per profile bucket shipped. */
    uint64_t scrapeProfileEntryBytes = 48;
    /** Additional payload per flip-ledger record shipped. */
    uint64_t scrapeFlipBytes = 32;
};

/** One closed rollup window of fleet-wide deltas. */
struct FleetWindow
{
    uint64_t index = 0;
    uint64_t startCycle = 0;
    uint64_t endCycle = 0;

    // ----- service deltas -----
    uint64_t requests = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t coalesced = 0;
    uint64_t dropped = 0;
    uint64_t delayed = 0;
    uint64_t failed = 0;
    uint64_t crashes = 0;
    uint64_t replicaRoutes = 0;
    uint64_t corruptRejects = 0;
    uint64_t corruptResponses = 0;
    // ----- install-gate deltas (DESIGN.md §12) -----
    uint64_t validatePasses = 0;
    uint64_t validateFails = 0;
    uint64_t validateEscalations = 0;
    uint64_t validateCycles = 0;

    // ----- client deltas (summed over servers) -----
    uint64_t timeouts = 0;
    uint64_t retries = 0;
    uint64_t hedges = 0;
    uint64_t localFallbacks = 0;
    uint64_t breakerShortCircuits = 0;
    uint64_t breakerOpens = 0;

    // ----- state sampled at the window close -----
    /** Breakers currently not Closed. */
    uint64_t breakersOpen = 0;
    /** Requests stalled past the ladder bound. */
    uint64_t stranded = 0;
    /** Whole-server pauses injected this window. */
    uint64_t serverPauses = 0;
    /** Per-shard health/occupancy at the close. */
    std::vector<uint8_t> shardUp;
    std::vector<uint64_t> shardOccupancy;

    /** Window hit rate (hits + coalesced over classified). */
    double hitRate = 0.0;

    /** Fleet-merged flip latencies recorded this window. */
    obs::HdrHistogram flip;

    /** Fleet-merged flip-*effect* latencies (request → new code
     *  executing) recorded this window, split by how the flip took
     *  effect: at function re-entry vs mid-loop via OSR
     *  (DESIGN.md §14). Empty when servers were registered without
     *  their runtimes. */
    obs::HdrHistogram flipEffectEntry;
    obs::HdrHistogram flipEffectOsr;

    // ----- continuous-profiling deltas (0 when profiling off) -----
    /** PC samples scraped from server profilers this window. */
    uint64_t profileSamples = 0;
    /** Flip-experiment records scraped this window. */
    uint64_t flipRecords = 0;

    // ----- the scrape's own cost -----
    uint64_t scrapeBytes = 0;
    uint64_t scrapeNetworkCycles = 0;
    uint64_t scrapeCpuCycles = 0;

    /** Flat field map for SLO evaluation (stable key set). */
    std::map<std::string, double> fields() const;
};

/**
 * Aggregation point for per-server metric deltas. Built by FleetSim
 * when telemetry is enabled and driven from the cluster's barrier
 * hook.
 */
class TelemetryHub
{
  public:
    TelemetryHub(const TelemetryConfig &cfg, CompileService &svc,
                 Cluster &cluster);

    /** Register a server in id order. `backend` may be null (local
     *  compile config: only service-side series then); `profiler`
     *  may be null (no continuous profiling on that server); `rt`
     *  may be null (no flip-effect series for that server). */
    void addServer(RemoteBackend *backend, sim::Machine *machine,
                   runtime::VariantProfiler *profiler = nullptr,
                   runtime::ProteanRuntime *rt = nullptr);

    /** Age bound for the stranded-request count (the degradation
     *  ladder's worst-case budget). */
    void setStallBound(uint64_t cycles) { stallBound_ = cycles; }

    /** Declare an SLO evaluated on every closed window. */
    void addSlo(const obs::SloSpec &spec) { slo_.addSpec(spec); }

    const obs::SloMonitor &slo() const { return slo_; }

    /** Barrier callback: closes every window boundary crossed by
     *  `cycle`. */
    void onBarrier(uint64_t cycle);

    /** Close the current partial window, if it saw any cycles. Call
     *  once after the run; further barriers start a fresh window. */
    void flush(uint64_t cycle);

    const std::vector<FleetWindow> &windows() const
    {
        return windows_;
    }

    /** All windows' flip latencies merged (whole-run fleet tail). */
    obs::HdrHistogram fleetFlip() const;

    /** All windows' flip-effect latencies merged, by kind. */
    obs::HdrHistogram fleetFlipEffectEntry() const;
    obs::HdrHistogram fleetFlipEffectOsr() const;

    /** Fleet-merged continuous profile (all servers, all windows).
     *  Empty when profiling is off. */
    const obs::Profile &fleetProfile() const { return profile_; }

    /** Fleet-merged variant scoreboard (flip outcomes by function,
     *  mask and phase). Empty when profiling is off. */
    const VariantScoreboard &scoreboard() const
    {
        return scoreboard_;
    }

    /** Total scrape cost paid so far. */
    uint64_t scrapeBytesTotal() const { return scrapeBytes_; }
    uint64_t scrapeNetworkCyclesTotal() const
    {
        return scrapeNetCycles_;
    }
    uint64_t scrapeCpuCyclesTotal() const { return scrapeCpu_; }

    /** Whole plane as one JSON object (config, windows, scrape
     *  totals, SLO state), byte-stable across identical runs. */
    std::string toJson() const;

    /** Write toJson(); fatal on I/O failure. */
    void writeJson(const std::string &path) const;

    /** Publish summary gauges (window count, fleet flip quantiles,
     *  scrape totals) into the global metrics registry. */
    void exportObsMetrics() const;

  private:
    struct ServerSlot
    {
        RemoteBackend *backend = nullptr;
        sim::Machine *machine = nullptr;
        runtime::VariantProfiler *profiler = nullptr;
        runtime::ProteanRuntime *rt = nullptr;
        ClientStats prev;
        uint64_t prevOpens = 0;
    };

    void closeWindow(uint64_t cycle);

    TelemetryConfig cfg_;
    CompileService &svc_;
    Cluster &cluster_;
    std::vector<ServerSlot> servers_;
    std::vector<FleetWindow> windows_;
    obs::Profile profile_;
    VariantScoreboard scoreboard_;
    obs::SloMonitor slo_;
    ServiceStats prevService_;
    uint64_t prevPauses_ = 0;
    uint64_t windowStart_ = 0;
    uint64_t stallBound_ = UINT64_MAX;
    uint64_t scrapeBytes_ = 0;
    uint64_t scrapeNetCycles_ = 0;
    uint64_t scrapeCpu_ = 0;
};

} // namespace fleet
} // namespace protean

#endif // PROTEAN_FLEET_TELEMETRY_H
