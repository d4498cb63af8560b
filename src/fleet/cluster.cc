#include "fleet/cluster.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace protean {
namespace fleet {

Cluster::Cluster(CompileService &svc) : svc_(svc)
{
    // A request submitted just after a barrier arrives at the
    // service requestLatency later and responds at least
    // responseLatency after its batch closes, so with the quantum
    // capped at the round trip every ready cycle is >= the barrier
    // that resolves it: responses always land in the future.
    const NetworkModel &net = svc.config().net;
    quantum_ = std::max<uint64_t>(
        1, net.requestLatencyCycles + net.responseLatencyCycles);
}

void
Cluster::addMachine(sim::Machine &m)
{
    if (m.now() != now_)
        fatal("Cluster: machine joins at cycle %llu, cluster is at "
              "%llu",
              static_cast<unsigned long long>(m.now()),
              static_cast<unsigned long long>(now_));
    machines_.push_back(&m);
}

void
Cluster::setFaultPlan(faults::FaultPlan *plan)
{
    plan_ = plan;
}

void
Cluster::applyServerPauses()
{
    if (!plan_ || !plan_->enabled())
        return;
    for (size_t i = 0; i < machines_.size(); ++i) {
        uint64_t pause = plan_->serverPauseCycles(
            static_cast<uint32_t>(i), now_);
        if (pause == 0)
            continue;
        ++pauses_;
        obs::metrics().counter("fleet.faults.server_pauses").inc();
        if (obs::tracer().enabled()) {
            obs::tracer().instant(
                "fleet.faults", "server pause",
                strformat("\"server\":%zu,\"cycles\":%llu", i,
                          static_cast<unsigned long long>(pause)));
        }
        // The whole server loses `pause` cycles of forward progress:
        // every core's clock advances without retiring work, exactly
        // like an antagonist or a hypervisor stall.
        sim::Machine &m = *machines_[i];
        for (uint32_t c = 0; c < m.numCores(); ++c)
            m.core(c).stealCycles(pause);
    }
}

void
Cluster::run(uint64_t until_cycle)
{
    if (until_cycle < now_)
        panic("Cluster: running into the past");
    while (now_ < until_cycle) {
        uint64_t t = std::min(until_cycle, now_ + quantum_);
        applyServerPauses();
        // Fixed server order per quantum keeps the interleaving of
        // service submissions deterministic.
        for (sim::Machine *m : machines_)
            m->run(t);
        svc_.advance(t);
        now_ = t;
        if (barrierHook_)
            barrierHook_(t);
    }
}

} // namespace fleet
} // namespace protean
