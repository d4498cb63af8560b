/**
 * @file
 * Lockstep cluster coordinator.
 *
 * Advances N independent sim::Machines and the shared CompileService
 * through global time together: machines run one quantum each, then
 * the service resolves everything that reached it (advance(T)). The
 * quantum is capped at the service's network round trip, so every
 * response's ready cycle lands at or after the barrier that produced
 * it — responses are scheduled into each machine's future, never its
 * past, and the whole simulation stays deterministic (see DESIGN.md
 * §7 for the rules).
 *
 * Within one quantum, machines never read each other's state: their
 * only shared interaction is submitting compile requests to the
 * service, which is resolved at the barrier. Machines step in fixed
 * registration order every quantum, so service sequence numbers,
 * metrics and the append-ordered trace log are identical across
 * repeat runs (DESIGN.md §8).
 */

#ifndef PROTEAN_FLEET_CLUSTER_H
#define PROTEAN_FLEET_CLUSTER_H

#include <functional>
#include <vector>

#include "fleet/service.h"
#include "sim/machine.h"

namespace protean {
namespace fleet {

/** Runs machines + service in lockstep quanta. */
class Cluster
{
  public:
    explicit Cluster(CompileService &svc);

    /** Register a machine (non-owning). All machines must share the
     *  cluster's current time. Registration order is the stepping
     *  order (FleetSim registers in server-id order). */
    void addMachine(sim::Machine &m);

    /**
     * Attach a fault plan (nullptr = benign). The cluster consults it
     * at each quantum start for whole-server pauses — scheduler
     * stalls, reboots, antagonists — applied by stealing cycles on
     * every core of the paused machine. The decision is a pure hash
     * of (server index, quantum start), applied by the coordinator
     * before machines step, so repeat runs pause identically.
     */
    void setFaultPlan(faults::FaultPlan *plan);

    /**
     * Install a callback invoked at every barrier, after the service
     * has resolved the quantum, with the new global cycle. Machines
     * are quiescent at that point, so the hook may read any of their
     * state (the telemetry hub scrapes here). One hook; set to
     * nullptr to remove.
     */
    void setBarrierHook(std::function<void(uint64_t)> hook)
    {
        barrierHook_ = std::move(hook);
    }

    /** Advance everything to an absolute global cycle. */
    void run(uint64_t until_cycle);

    /** Advance everything by a duration. */
    void runFor(uint64_t cycles) { run(now_ + cycles); }

    uint64_t now() const { return now_; }
    uint64_t quantum() const { return quantum_; }
    /** Injected whole-server pauses applied so far. */
    uint64_t pausesApplied() const { return pauses_; }
    size_t numMachines() const { return machines_.size(); }

  private:
    CompileService &svc_;
    std::vector<sim::Machine *> machines_;
    uint64_t now_ = 0;
    uint64_t quantum_;
    faults::FaultPlan *plan_ = nullptr;
    uint64_t pauses_ = 0;
    std::function<void(uint64_t)> barrierHook_;

    /** Apply injected whole-server pauses for the quantum starting
     *  at now_ (before machines step). */
    void applyServerPauses();
};

} // namespace fleet
} // namespace protean

#endif // PROTEAN_FLEET_CLUSTER_H
