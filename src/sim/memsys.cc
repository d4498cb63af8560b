#include "sim/memsys.h"

#include "support/logging.h"

namespace protean {
namespace sim {

MemorySystem::MemorySystem(const MachineConfig &cfg)
    : cfg_(cfg)
{
    for (uint32_t c = 0; c < cfg.numCores; ++c) {
        l1_.push_back(std::make_unique<Cache>(
            strformat("l1.%u", c), cfg.l1));
        l2_.push_back(std::make_unique<Cache>(
            strformat("l2.%u", c), cfg.l2));
    }
    l3_ = std::make_unique<Cache>("l3", cfg.l3);
    lastLine_.assign(cfg.numCores, ~0ULL);
    seqRun_.assign(cfg.numCores, 0);
}

void
MemorySystem::noteAccess(uint32_t core, uint64_t addr)
{
    uint64_t line = addr / cfg_.l1.lineBytes;
    uint64_t last = lastLine_[core];
    if (line == last) {
        // Same line: no change to the run.
    } else if (line == last + 1) {
        ++seqRun_[core];
    } else {
        seqRun_[core] = 0;
    }
    lastLine_[core] = line;
}

bool
MemorySystem::streaming(uint32_t core) const
{
    return seqRun_[core] >= cfg_.prefetchMinRun;
}

// Unfenced runs issue whole accesses. Flattening inlines both halves
// (and prefetch) here, so the split costs them no extra calls.
[[gnu::flatten]] AccessResult
MemorySystem::access(uint32_t core, uint64_t addr, bool nonTemporal,
                     uint64_t now, HpmCounters &hpm)
{
    PrivateProbe probe;
    AccessResult res = accessPrivate(core, addr, hpm, probe);
    if (res.l1Hit || res.l2Hit)
        return res;
    return accessShared(core, addr, nonTemporal, now, hpm, probe);
}

AccessResult
MemorySystem::accessPrivate(uint32_t core, uint64_t addr,
                            HpmCounters &hpm, PrivateProbe &probe)
{
    if (core >= l1_.size())
        panic("MemorySystem: bad core %u", core);

    // Each level is probed once. A missed probe already names the
    // way its fill evicts, and only this core's own next access
    // touches its L1 or L2, so the shared half reuses the probes.
    Cache &l1 = *l1_[core];
    AccessResult res;
    probe.l1 = l1.peek(addr);
    if (probe.l1.hit) {
        noteAccess(core, addr);
        l1.commit(probe.l1);
        res.latency = cfg_.l1.latency;
        res.l1Hit = true;
        return res;
    }
    Cache &l2 = *l2_[core];
    probe.l2 = l2.peek(addr);
    if (probe.l2.hit) {
        noteAccess(core, addr);
        l1.commit(probe.l1);
        ++hpm.l1Misses;
        l2.commit(probe.l2);
        // L1 always fills normally: the hint targets shared levels.
        l1.install(probe.l1, addr, false);
        res.latency = cfg_.l1.latency + cfg_.l2.latency;
        res.l2Hit = true;
    }
    return res;
}

AccessResult
MemorySystem::accessShared(uint32_t core, uint64_t addr,
                           bool nonTemporal, uint64_t now,
                           HpmCounters &hpm, const PrivateProbe &probe)
{
    noteAccess(core, addr);
    Cache &l1 = *l1_[core];
    Cache &l2 = *l2_[core];
    l1.commit(probe.l1);
    ++hpm.l1Misses;
    l2.commit(probe.l2);
    ++hpm.l2Misses;

    AccessResult res;
    res.latency = cfg_.l1.latency + cfg_.l2.latency + cfg_.l3.latency;
    ++hpm.l3Accesses;
    Cache::Probe p3 = l3_->lookup(addr);
    if (!p3.hit) {
        ++hpm.l3Misses;
        ++hpm.dramAccesses;
        ++dramAccesses_;
        res.dram = true;
        uint64_t start = std::max(now, dramNextFree_);
        uint64_t queue = start - now;
        dramNextFree_ = start + cfg_.dramOccupancy;
        res.latency += queue + cfg_.dramLatency;
    } else {
        res.l3Hit = true;
    }

    bool nt = nonTemporal;
    bool bypass = nt && cfg_.ntPolicy == NtPolicy::Bypass;
    if (!p3.hit && !bypass)
        l3_->install(p3, addr, nt);
    if (!bypass)
        l2.install(probe.l2, addr, nt);
    l1.install(probe.l1, addr, false);

    if (!p3.hit && streaming(core))
        prefetch(core, addr, nt);
    return res;
}

void
MemorySystem::prefetch(uint32_t core, uint64_t addr, bool nonTemporal)
{
    // Next-line stride prefetches: background fills into L2/L3 that
    // consume DRAM bandwidth but never stall the core. They inherit
    // the demand access's non-temporal flag, as prefetchnta does.
    uint32_t line = cfg_.l3.lineBytes;
    // Under the bypass policy there is nowhere to put a non-temporal
    // prefetch, so none is issued (and no bandwidth is spent).
    if (nonTemporal && cfg_.ntPolicy == NtPolicy::Bypass)
        return;
    Cache &l2 = *l2_[core];
    for (uint32_t i = 1; i <= cfg_.prefetchDegree; ++i) {
        uint64_t target = addr + static_cast<uint64_t>(i) * line;
        Cache::Probe p2 = l2.peek(target);
        if (p2.hit)
            continue;
        Cache::Probe p3 = l3_->peek(target);
        if (p3.hit)
            continue;
        dramNextFree_ += cfg_.dramOccupancy;
        ++dramAccesses_;
        l3_->install(p3, target, nonTemporal);
        l2.install(p2, target, nonTemporal);
        ++prefetches_;
    }
}

} // namespace sim
} // namespace protean
