/**
 * @file
 * Set-associative cache model (timing/occupancy only).
 *
 * Caches track tags and recency; data values live in the functional
 * memory (sim/memory.h). The non-temporal insertion policy implements
 * the microarchitectural effect of prefetchnta-style hints: lines
 * filled on behalf of a non-temporal access are inserted at the LRU
 * position (or bypass the level entirely, per NtPolicy), so they
 * relinquish the level's capacity quickly instead of polluting it.
 */

#ifndef PROTEAN_SIM_CACHE_H
#define PROTEAN_SIM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.h"

namespace protean {
namespace sim {

/** Cumulative per-cache statistics. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t ntFills = 0;

    double missRate() const
    {
        return accesses == 0 ? 0.0 :
            static_cast<double>(misses) / static_cast<double>(accesses);
    }
};

/**
 * One level of set-associative cache with LRU replacement.
 *
 * Each set is two contiguous arrays of ways: line tags and recency
 * stamps. An invalid way holds kNoTag, which no line address can
 * equal, and stamp 0. A non-temporal fill gets stamp 1, and the
 * recency counter starts at 2. So the victim is simply the first way
 * with the smallest stamp: the first invalid way, else the first
 * least-recent one, with NT-inserted lines going first.
 */
class Cache
{
  public:
    /** One pass over a set: the way that hit, or the way a fill of
     *  the missed line would evict. */
    struct Probe
    {
        uint32_t slot; ///< set * ways + way
        bool hit;
    };

    /**
     * @param name Stats label.
     * @param cfg Geometry; sizeBytes must be divisible by
     *            ways * lineBytes, and the set count and line size
     *            (at least 2) must be powers of two.
     */
    Cache(std::string name, const CacheConfig &cfg);

    /** Probe, counting the access (and the miss); a hit becomes the
     *  set's most recent way. */
    Probe
    lookup(uint64_t addr)
    {
        Probe p = peek(addr);
        commit(p);
        return p;
    }

    /**
     * Count a peeked probe as an access, as lookup() would have. Nothing
     * may touch this cache between that peek and the commit.
     */
    void
    commit(Probe p)
    {
        ++stats_.accesses;
        if (p.hit)
            stamps_[p.slot] = useCounter_++;
        else
            ++stats_.misses;
    }

    /** Probe without updating recency or stats. */
    Probe
    peek(uint64_t addr) const
    {
        uint64_t la = lineAddr(addr);
        uint32_t base = static_cast<uint32_t>(la & (sets_ - 1)) * ways_;
        const uint64_t *tags = &tags_[base];
        const uint64_t *stamps = &stamps_[base];
        uint32_t victim = 0;
        uint64_t oldest = stamps[0];
        for (uint32_t w = 0; w < ways_; ++w) {
            if (tags[w] == la)
                return {base + w, true};
            if (stamps[w] < oldest) {
                oldest = stamps[w];
                victim = w;
            }
        }
        return {base + victim, false};
    }

    /**
     * Install a line into the victim slot of a missed probe. Nothing
     * may touch this cache between that probe and the install.
     * @param nonTemporal Insert at the LRU position.
     */
    void
    install(Probe p, uint64_t addr, bool nonTemporal)
    {
        tags_[p.slot] = lineAddr(addr);
        if (nonTemporal) {
            stamps_[p.slot] = kNtStamp;
            ++stats_.ntFills;
        } else {
            stamps_[p.slot] = useCounter_++;
        }
    }

    /** lookup(), reduced to whether it hit. */
    bool access(uint64_t addr) { return lookup(addr).hit; }

    /** Install a line unless it is already resident. */
    void
    fill(uint64_t addr, bool nonTemporal)
    {
        Probe p = peek(addr);
        if (!p.hit)
            install(p, addr, nonTemporal);
    }

    bool contains(uint64_t addr) const { return peek(addr).hit; }

    /** Number of resident lines whose address tag matches the given
     *  owner id in the upper address bits (occupancy accounting). */
    uint64_t linesOwnedBy(uint64_t owner_base, uint64_t owner_span) const;

    const CacheStats &stats() const { return stats_; }

    const std::string &name() const { return name_; }
    uint32_t numSets() const { return sets_; }
    uint32_t numWays() const { return ways_; }
    uint32_t lineBytes() const { return lineBytes_; }

  private:
    static constexpr uint64_t kNoTag = ~0ULL;
    static constexpr uint64_t kNtStamp = 1;

    std::string name_;
    uint32_t sets_;
    uint32_t ways_;
    uint32_t lineBytes_;
    uint32_t indexShift_;
    uint64_t useCounter_ = kNtStamp + 1;
    std::vector<uint64_t> tags_;   // sets_ * ways_, set-major
    std::vector<uint64_t> stamps_; // parallel to tags_
    CacheStats stats_;

    uint64_t lineAddr(uint64_t addr) const { return addr >> indexShift_; }
};

} // namespace sim
} // namespace protean

#endif // PROTEAN_SIM_CACHE_H
