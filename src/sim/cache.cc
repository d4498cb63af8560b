#include "sim/cache.h"

#include <bit>

#include "support/logging.h"

namespace protean {
namespace sim {

Cache::Cache(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), ways_(cfg.ways), lineBytes_(cfg.lineBytes)
{
    if (cfg.sizeBytes == 0 || cfg.ways == 0 || cfg.lineBytes == 0)
        fatal("cache %s: zero geometry parameter", name_.c_str());
    if (cfg.sizeBytes % (cfg.ways * cfg.lineBytes) != 0)
        fatal("cache %s: size %u not divisible by ways*line",
              name_.c_str(), cfg.sizeBytes);
    sets_ = cfg.sizeBytes / (cfg.ways * cfg.lineBytes);
    if (!std::has_single_bit(sets_))
        fatal("cache %s: set count %u is not a power of two",
              name_.c_str(), sets_);
    // A line of at least 2 bytes keeps every line address below
    // kNoTag.
    if (!std::has_single_bit(lineBytes_) || lineBytes_ < 2)
        fatal("cache %s: line size %u is not a power of two >= 2",
              name_.c_str(), lineBytes_);
    indexShift_ = static_cast<uint32_t>(std::countr_zero(lineBytes_));
    tags_.assign(static_cast<size_t>(sets_) * ways_, kNoTag);
    stamps_.assign(tags_.size(), 0);
}

uint64_t
Cache::linesOwnedBy(uint64_t owner_base, uint64_t owner_span) const
{
    uint64_t lo = lineAddr(owner_base);
    uint64_t hi = lineAddr(owner_base + owner_span - 1);
    uint64_t n = 0;
    for (uint64_t tag : tags_) {
        if (tag != kNoTag && tag >= lo && tag <= hi)
            ++n;
    }
    return n;
}

} // namespace sim
} // namespace protean
