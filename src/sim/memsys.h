/**
 * @file
 * Memory-system timing: private L1/L2 per core, shared L3, DRAM
 * bandwidth model.
 *
 * The L3 is the contention surface the paper's PC3D targets: all
 * cores' fills compete for its capacity, and non-temporal accesses
 * from one core surrender that capacity to the others. DRAM is a
 * single channel with an occupancy-based queueing model so bandwidth
 * contention also manifests.
 */

#ifndef PROTEAN_SIM_MEMSYS_H
#define PROTEAN_SIM_MEMSYS_H

#include <memory>
#include <vector>

#include "sim/cache.h"
#include "sim/config.h"
#include "sim/hpm.h"

namespace protean {
namespace sim {

/** Outcome of one timed access. */
struct AccessResult
{
    uint64_t latency = 0;
    bool l1Hit = false;
    bool l2Hit = false;
    bool l3Hit = false;
    bool dram = false;
};

/** The issuing core's L1 and L2 probes of one access: the way that
 *  hit, or the way a fill of the line would evict. */
struct PrivateProbe
{
    Cache::Probe l1;
    Cache::Probe l2;
};

/**
 * The timed memory hierarchy shared by all cores.
 *
 * An access splits into a private half and a shared half. The private
 * half touches only the issuing core's L1, L2 and stride tracker, and
 * nothing else touches those, so it commutes with every other core's
 * work. Only the shared half (L3, the DRAM queue, prefetch) couples
 * cores; the multi-core engine orders just those (DESIGN.md §13).
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MachineConfig &cfg);

    /**
     * Perform one timed access: the private half, then, unless it hit,
     * the shared half.
     * @param core Issuing core index.
     * @param addr Physical byte address.
     * @param nonTemporal Fill L2/L3 with the NT policy.
     * @param now Issue time (for DRAM queueing).
     * @param hpm Counter file to charge.
     */
    AccessResult access(uint32_t core, uint64_t addr, bool nonTemporal,
                        uint64_t now, HpmCounters &hpm);

    /**
     * Private half of an access: probe the core's L1, then its L2. On
     * a hit it commits the access (stats, recency, stride run, the L1
     * fill of an L2 hit) and returns it with l1Hit or l2Hit set. On an
     * L2 miss it changes nothing and returns neither flag set; `probe`
     * then holds what accessShared() needs.
     */
    AccessResult accessPrivate(uint32_t core, uint64_t addr,
                               HpmCounters &hpm, PrivateProbe &probe);

    /**
     * Shared half of an access whose private half missed: commit the
     * L1/L2 misses, then L3, DRAM, the fills and prefetch. The core
     * must make no other access between the two halves.
     */
    AccessResult accessShared(uint32_t core, uint64_t addr,
                              bool nonTemporal, uint64_t now,
                              HpmCounters &hpm,
                              const PrivateProbe &probe);

    /** Shared L3 (stats / occupancy inspection). */
    Cache &l3() { return *l3_; }
    const Cache &l3() const { return *l3_; }

    Cache &l1(uint32_t core) { return *l1_[core]; }
    Cache &l2(uint32_t core) { return *l2_[core]; }

    /** Total DRAM accesses issued so far (prefetches included). */
    uint64_t dramAccesses() const { return dramAccesses_; }

    /** Prefetch fills issued so far. */
    uint64_t prefetches() const { return prefetches_; }

  private:
    MachineConfig cfg_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;
    uint64_t dramNextFree_ = 0;
    uint64_t dramAccesses_ = 0;
    uint64_t prefetches_ = 0;

    /** Per-core stride detection: last accessed line and the length
     *  of the current sequential run. */
    std::vector<uint64_t> lastLine_;
    std::vector<uint32_t> seqRun_;

    void noteAccess(uint32_t core, uint64_t addr);
    bool streaming(uint32_t core) const;
    void prefetch(uint32_t core, uint64_t addr, bool nonTemporal);
};

} // namespace sim
} // namespace protean

#endif // PROTEAN_SIM_MEMSYS_H
