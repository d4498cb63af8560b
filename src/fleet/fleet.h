/**
 * @file
 * The simulated fleet: N servers, one binary, one compile service.
 *
 * Every server is a full sim::Machine running the same protean
 * binary with a ProteanRuntime attached. Variant requests arrive at
 * each server as an independent exponential process (its own
 * monitoring stack deciding to retune), drawn from a shared catalog
 * of (function, NT mask) directives — the same binary produces the
 * same catalog on every server, which is exactly the WSC redundancy
 * the compilation service amortizes (paper Section V-E).
 *
 * With cfg.remoteBackend=false every server compiles locally (the
 * single-server baseline); with true, all requests route through the
 * shared content-addressed CompileService, and the fleet-wide compile
 * cycle total collapses by roughly the server count.
 */

#ifndef PROTEAN_FLEET_FLEET_H
#define PROTEAN_FLEET_FLEET_H

#include <memory>
#include <string>
#include <vector>

#include "fleet/client.h"
#include "fleet/cluster.h"
#include "fleet/service.h"
#include "fleet/telemetry.h"
#include "ir/module.h"
#include "isa/image.h"
#include "runtime/runtime.h"
#include "sim/machine.h"
#include "support/random.h"
#include "validate/validator.h"

namespace protean {
namespace fleet {

/** Fleet simulation parameters. */
struct FleetConfig
{
    uint32_t numServers = 8;
    /** Batch application every server runs (same binary fleet-wide). */
    std::string batch = "soplex";
    ServiceConfig service;
    /** false = local compile backend on every server (baseline). */
    bool remoteBackend = true;
    /** Mean per-server variant-request interarrival, simulated ms. */
    double meanRequestMs = 4.0;
    /** Catalog depth: NT masks generated per virtualized function. */
    uint32_t masksPerFunction = 4;
    uint64_t seed = 42;
    /** Server-side cost of installing a received variant. */
    uint64_t installCycles = 100;
    /** Core charged with runtime/compile/install work. Defaults to
     *  the host's own core, the WSC configuration: no server
     *  dedicates a core to compilation, so local compiles steal host
     *  cycles and the service's value shows up as host progress. */
    uint32_t runtimeCore = 0;
    /** Fault injection (all-zero = benign; see faults::FaultConfig).
     *  When any rate is non-zero the sim builds a FaultPlan and
     *  attaches it to the service and the cluster. */
    faults::FaultConfig faults;
    /** Client-side degradation ladder (retry.enabled=false keeps the
     *  pre-fault fire-and-wait client). */
    RetryPolicy retry;
    /** On-stack replacement: dispatched flips also redirect loop
     *  back-edges, so executing loops flip at their next back-edge
     *  instead of waiting for function re-entry (DESIGN.md §14). */
    bool osr = false;
    /** Restrict the directive catalog to the generated hot kernels
     *  ("hot_*"). The hot-loop scenario sets this: `main` sits
     *  suspended on the call stack for the whole run (its hot call
     *  never returns), so a directive against it can never take
     *  effect in either flip mode and would only pollute the
     *  pending-flip census. */
    bool hotFuncsOnly = false;
    /** Telemetry plane (enabled=false: no hub, no scrape cost). */
    TelemetryConfig telemetry;
    /** Translation-validation install gate (DESIGN.md §12). The
     *  default Ir mode keeps the cheap structural tier always on;
     *  mode=Off builds no validator (the pre-§12 service). */
    validate::ValidateConfig validate;
    sim::MachineConfig machine;
};

/** Aggregated fleet results. */
struct FleetStats
{
    /** Variant deploy requests issued across all servers. */
    uint64_t deployRequests = 0;
    /** Variants materialized into server code caches. */
    uint64_t serverCompiles = 0;
    /** Compile cycles charged to servers (stolen from hosts). */
    uint64_t serverCompileCycles = 0;
    /** Requests the service satisfied without a fresh compile. */
    uint64_t remoteHits = 0;
    /** Host progress: retired branches summed over all servers. */
    uint64_t hostBranches = 0;
    /** Requests pending on some client for longer than the ladder's
     *  worst-case budget: unresolved by retry, replica, or local
     *  fallback. Any nonzero value is a host workload stall — the
     *  thing the degradation ladder forbids. (Recently-sent requests
     *  still inside their budget don't count.) */
    uint64_t stalledRequests = 0;
    /** Whole-server pauses the cluster injected. */
    uint64_t serverPauses = 0;
    // ----- flip-*effect* latency census (summed over servers) -----
    /** Flips that took effect at function re-entry. */
    uint64_t entryFlips = 0;
    /** Flips that took effect mid-loop via OSR. */
    uint64_t osrFlips = 0;
    /** Dispatched flips not yet executing (censored). */
    uint64_t pendingFlips = 0;
    /** Worst request→effect latencies, in cycles. */
    uint64_t worstEntryFlip = 0;
    uint64_t worstOsrFlip = 0;
    uint64_t worstPendingFlip = 0;
    /** OSR redirect passes / back-edge branches patched. */
    uint64_t osrRedirects = 0;
    uint64_t osrPatches = 0;
    ServiceStats service;
    /** Degradation-ladder activity summed over all clients. */
    ClientStats client;

    /** Worst-case flip-effect latency anywhere in the fleet, fired
     *  or still pending — the tail OSR is built to collapse. */
    uint64_t worstFlipEffect() const
    {
        uint64_t w = worstEntryFlip > worstOsrFlip ? worstEntryFlip :
            worstOsrFlip;
        return w > worstPendingFlip ? w : worstPendingFlip;
    }

    /** Fleet-wide compile cycles: servers + service. */
    uint64_t totalCompileCycles() const
    {
        return serverCompileCycles + service.compileCycles;
    }

    /** Variants materialized per fresh compile anywhere: the
     *  amortization the service buys (1.0 for the local baseline). */
    double dedupFactor() const
    {
        uint64_t compiles = service.compiles > 0 ? service.compiles :
            serverCompiles;
        if (compiles == 0)
            return 1.0;
        return static_cast<double>(serverCompiles) /
            static_cast<double>(compiles);
    }
};

/** N servers + shared compile service, run in lockstep. */
class FleetSim
{
  public:
    explicit FleetSim(const FleetConfig &cfg);
    ~FleetSim();

    FleetSim(const FleetSim &) = delete;
    FleetSim &operator=(const FleetSim &) = delete;

    /** Advance the whole fleet by a simulated duration. */
    void run(double ms);

    FleetStats stats() const;

    CompileService &service() { return svc_; }
    Cluster &cluster() { return cluster_; }
    size_t catalogSize() const { return catalog_.size(); }

    /** The attached fault plan (nullptr when cfg.faults is benign). */
    faults::FaultPlan *faultPlan() { return plan_.get(); }

    /** The install gate (nullptr when cfg.validate.mode is Off). */
    const validate::Validator *validator() const
    {
        return validator_.get();
    }

    /** The telemetry hub (nullptr when cfg.telemetry.enabled is
     *  false). Non-const so callers can addSlo() before run() and
     *  flush()/export after. */
    TelemetryHub *telemetry() { return hub_.get(); }
    const TelemetryHub *telemetry() const { return hub_.get(); }

    /** Close the hub's current partial window at the present cluster
     *  cycle (no-op without telemetry). Call once after the last
     *  run() so the tail of the run is rolled up too. */
    void flushTelemetry();

    /** Requests pending longer than the degradation ladder's
     *  worst-case budget (see FleetStats::stalledRequests). */
    uint64_t stalledRequests() const;

    /** Worst-case cycles the ladder may take to resolve a request
     *  (timeouts + capped backoffs + the local-fallback compile). */
    uint64_t ladderBoundCycles() const;

    /** Publish fleet gauges + per-shard service gauges. */
    void exportObsMetrics() const;

  private:
    struct Server
    {
        std::unique_ptr<sim::Machine> machine;
        std::unique_ptr<RemoteBackend> backend;
        std::unique_ptr<runtime::ProteanRuntime> rt;
        Rng rng;
        /** Deploy requests issued by this server. */
        uint64_t deploys = 0;
    };

    /** One catalog entry: a deployable transformation directive. */
    struct Directive
    {
        ir::FuncId func = ir::kInvalidId;
        BitVector mask;
    };

    FleetConfig cfg_;
    ir::Module module_;
    isa::Image image_;
    /** Owned fault schedule; must outlive svc_/cluster_ wiring. */
    std::unique_ptr<faults::FaultPlan> plan_;
    CompileService svc_;
    Cluster cluster_;
    /** Virtualization map the whole fleet lowers under (also what
     *  the validator re-derives candidates with). */
    codegen::VirtualizationMap slots_;
    /** Owned install gate; must outlive svc_. */
    std::unique_ptr<validate::Validator> validator_;
    std::unique_ptr<TelemetryHub> hub_;
    std::vector<Directive> catalog_;
    std::vector<std::unique_ptr<Server>> servers_;

    void buildCatalog();
    void scheduleNextRequest(Server &s);
};

} // namespace fleet
} // namespace protean

#endif // PROTEAN_FLEET_FLEET_H
