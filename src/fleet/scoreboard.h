/**
 * @file
 * Fleet-wide variant scoreboard: which NT-mask wins where.
 *
 * Every server's flip ledger (runtime/profiler.h) records windowed
 * IPC before and after each accepted flip. The telemetry hub drains
 * those ledgers at cluster barriers and feeds them here; the
 * scoreboard accumulates per-(function content hash, variant
 * NT-mask, phase id) outcome statistics and answers the advisory
 * question a fleet-wide optimizer actually asks: "for this function
 * in this phase, which variant has the best track record across the
 * whole fleet?"
 *
 * Scores are mean IPC deltas over all recorded flips of a bucket —
 * plain sums, so merge order never matters and fleet runs agree
 * byte-for-byte across repeat runs. recommendMask breaks score ties
 * toward the lexicographically smaller mask key, keeping the advice
 * deterministic too.
 */

#ifndef PROTEAN_FLEET_SCOREBOARD_H
#define PROTEAN_FLEET_SCOREBOARD_H

#include <cstdint>
#include <map>
#include <string>

#include "obs/profile.h"
#include "runtime/profiler.h"

namespace protean {
namespace fleet {

/** Accumulated flip outcomes of one (hash, mask, phase) bucket. */
struct VariantOutcome
{
    /** Flip experiments recorded. */
    uint64_t flips = 0;
    /** Experiments whose after-IPC beat the before-IPC. */
    uint64_t wins = 0;
    /** Sum of (ipcAfter - ipcBefore) over all experiments. */
    double ipcDeltaSum = 0.0;

    /** Mean IPC delta; the scoreboard's ranking signal. */
    double score() const
    {
        return flips == 0 ?
            0.0 :
            ipcDeltaSum / static_cast<double>(flips);
    }
};

/** Fleet-merged outcome scores + advisory mask recommendation. */
class VariantScoreboard
{
  public:
    /** Fold one flip experiment in (any server, any order). */
    void recordFlip(const runtime::FlipRecord &record);

    bool empty() const { return outcomes_.empty(); }

    /** Total flip experiments recorded. */
    uint64_t totalFlips() const { return totalFlips_; }

    /** All buckets, ordered by (hash, mask, phase). */
    const std::map<obs::ProfileKey, VariantOutcome> &outcomes() const
    {
        return outcomes_;
    }

    /** Outcome of one bucket; nullptr when never recorded. */
    const VariantOutcome *outcome(uint64_t func_hash,
                                  const std::string &mask,
                                  uint32_t phase) const;

    /**
     * The mask with the best mean IPC delta for (func_hash, phase)
     * across the fleet; "" when no flip of that function in that
     * phase was ever recorded. Ties break toward the smaller mask
     * key.
     */
    std::string recommendMask(uint64_t func_hash,
                              uint32_t phase) const;

    /**
     * Stable JSON: {"outcomes": [{"hash","mask","phase","flips",
     * "wins","mean_ipc_delta"}...], "recommendations": [{"hash",
     * "phase","mask"}...], "total_flips"}. Byte-identical for
     * identical contents.
     */
    std::string toJson() const;

  private:
    std::map<obs::ProfileKey, VariantOutcome> outcomes_;
    uint64_t totalFlips_ = 0;
};

} // namespace fleet
} // namespace protean

#endif // PROTEAN_FLEET_SCOREBOARD_H
