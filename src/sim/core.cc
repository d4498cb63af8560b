#include "sim/core.h"

#include "sim/memsys.h"
#include "support/logging.h"

namespace protean {
namespace sim {

using isa::MInst;
using isa::MOp;

Core::Core(uint32_t id, const MachineConfig &cfg, MemorySystem &memsys)
    : id_(id), cfg_(cfg), memsys_(memsys)
{
}

void
Core::bind(Process *proc)
{
    proc_ = proc;
    arch_.regs.fill(0);
    arch_.stack.clear();
    sbCache_.clear();
    parked_ = false;
    parkBlock_ = nullptr;
    flipWatches_.clear();
    sbVersion_ = proc ? proc->codeVersion() : 0;
    if (proc_) {
        proc_->setCoreId(id_);
        arch_.pc = proc_->image().entryPoint();
    }
    setBtConfig(bt_); // retranslates from the entry block
}

bool
Core::runnable() const
{
    if (stolenBacklog_ > 0)
        return true;
    return proc_ && proc_->state() == ProcState::Running;
}

void
Core::syncIdleClock(uint64_t now)
{
    if (cycle_ < now)
        cycle_ = now;
}

void
Core::setNapIntensity(double f)
{
    if (f < 0.0 || f > 1.0)
        panic("nap intensity %g out of [0, 1]", f);
    napIntensity_ = f;
    refreshThrottleFlag();
}

void
Core::stealCycles(uint64_t cycles)
{
    stolenBacklog_ += cycles;
    refreshThrottleFlag();
}

void
Core::setBtConfig(const BtConfig &bt)
{
    bt_ = bt;
    btBlocks_.clear();
    if (bt_.enabled && proc_) {
        btBlocks_.insert(arch_.pc);
        cycle_ += bt_.translateCycles;
        hpm_.cycles += bt_.translateCycles;
    }
}

bool
Core::consumeThrottles()
{
    // Runtime work charged to this core runs ahead of the host.
    if (stolenBacklog_ > 0) {
        cycle_ += stolenBacklog_;
        hpm_.cycles += stolenBacklog_;
        hpm_.stolenCycles += stolenBacklog_;
        stolenBacklog_ = 0;
        refreshThrottleFlag();
        return true;
    }
    // Nap: sleep for the first f of every period.
    if (napIntensity_ > 0.0) {
        uint64_t period = cfg_.napPeriodCycles;
        uint64_t pos = cycle_ % period;
        auto sleep_len = static_cast<uint64_t>(
            napIntensity_ * static_cast<double>(period));
        if (pos < sleep_len) {
            uint64_t delta = sleep_len - pos;
            cycle_ += delta;
            hpm_.cycles += delta;
            hpm_.nappedCycles += delta;
            return true;
        }
    }
    return false;
}

template <bool kFenced>
bool
Core::timedAccess(uint64_t vaddr, bool nonTemporal, uint64_t &latency)
{
    uint64_t addr = proc_->physAddr(vaddr);
    if constexpr (kFenced) {
        if (parked_) {
            // This core's turn in (cycle, id) order: the shared half.
            parked_ = false;
            latency = memsys_.accessShared(id_, addr, nonTemporal, cycle_,
                                           hpm_, parkProbe_).latency;
            return true;
        }
        AccessResult res =
            memsys_.accessPrivate(id_, addr, hpm_, parkProbe_);
        if (!res.l1Hit && !res.l2Hit) {
            parked_ = true;
            return false;
        }
        latency = res.latency;
    } else {
        latency =
            memsys_.access(id_, addr, nonTemporal, cycle_, hpm_).latency;
    }
    return true;
}

/**
 * The core's port onto isa::execute: each access is timed through the
 * memory system (and, under the fence, may park before its shared
 * half), and each retired event is counted in the HPM.
 */
template <bool kFenced>
struct Core::Port
{
    Core &c;
    /** Latency the instruction stalls on: its load or EVT read. */
    uint64_t latency = 0;

    bool
    load(uint64_t addr, bool nonTemporal, uint64_t &value)
    {
        if (!c.timedAccess<kFenced>(addr, nonTemporal, latency))
            return false;
        ++c.hpm_.loads;
        value = c.proc_->readWord(addr);
        return true;
    }

    bool
    store(uint64_t addr, bool nonTemporal, uint64_t value)
    {
        // Stores retire through a write buffer: cache state is
        // updated but the core does not stall on the fill.
        uint64_t buffered = 0;
        if (!c.timedAccess<kFenced>(addr, nonTemporal, buffered))
            return false;
        ++c.hpm_.stores;
        c.proc_->writeWord(addr, value);
        return true;
    }

    bool
    evtTarget(uint32_t slot, isa::CodeAddr &target)
    {
        // The EVT read is a real (cached) memory access; this is the
        // entire cost of edge virtualization.
        uint64_t addr = c.proc_->image().evtSlotAddr(slot);
        if (!c.timedAccess<kFenced>(addr, false, latency))
            return false;
        target = static_cast<isa::CodeAddr>(c.proc_->readWord(addr));
        return true;
    }

    bool
    unpatchedCall()
    {
        panic("core %u: unpatched direct call at %u", c.id_, c.arch_.pc);
    }

    bool enterCall(size_t) { return true; }
    // The executed prefetchnta: costs its slot; the line's insertion
    // policy is carried by the following NT load.
    void hint() { ++c.hpm_.hints; }
    void branch() { ++c.hpm_.branches; }

    isa::CodeAddr
    transfer(isa::CodeAddr, isa::CodeAddr to, isa::Transfer how)
    {
        if (!c.flipWatches_.empty())
            c.fireFlipWatches(to);
        if (c.bt_.enabled) {
            // Returns pay the indirect lookup; calls and branches the
            // linked-block residual.
            uint64_t extra = how == isa::Transfer::Return
                ? c.bt_.indirectCycles : c.bt_.takenExtraCycles;
            if (c.btBlocks_.insert(to).second)
                extra += c.bt_.translateCycles;
            c.cycle_ += extra;
            c.hpm_.cycles += extra;
        }
        return to;
    }

    void halt() { c.proc_->setState(ProcState::Halted); }
};

// Inlined into the dispatch loop: a call per instruction would cost
// more than most instructions do.
template <bool kFenced>
[[gnu::always_inline]] inline bool
Core::execute(const MInst &inst)
{
    Port<kFenced> port{*this};
    if (!isa::execute(port, arch_, inst))
        return false; // parked before the access: nothing changed
    const MOp op = inst.op;
    const uint64_t cost = port.latency +
        (op == MOp::Mul ? 3 : op == MOp::Div || op == MOp::Mod ? 12 : 1);
    ++hpm_.instructions;
    cycle_ += cost;
    hpm_.cycles += cost;
    return true;
}

void
Core::step()
{
    if (consumeThrottles())
        return;
    if (!proc_ || proc_->state() != ProcState::Running)
        panic("core %u stepped without runnable work", id_);
    execute<false>(proc_->inst(arch_.pc));
}

Core::Superblock &
Core::fetchSuperblock()
{
    uint64_t v = proc_->codeVersion();
    if (v != sbVersion_) {
        // Code moved under us (variant append or call-site patch):
        // retire every decoded block before dispatching, so a flip
        // can never execute a stale instruction.
        sbStats_.invalidations += sbCache_.size();
        sbCache_.clear();
        sbVersion_ = v;
    }
    const isa::CodeAddr pc = arch_.pc;
    auto it = sbCache_.find(pc);
    if (it != sbCache_.end()) {
        ++sbStats_.hits;
        return it->second;
    }
    ++sbStats_.misses;
    Superblock sb;
    isa::CodeAddr end = proc_->codeSize();
    for (isa::CodeAddr a = pc; a < end; ++a) {
        const MInst &in = proc_->inst(a);
        sb.insts.push_back(in);
        if (in.isControlFlow() || sb.insts.size() >= kMaxSuperblockLen)
            break;
    }
    if (sb.insts.empty())
        proc_->inst(pc); // canonical wild-pc panic
    return sbCache_.emplace(pc, std::move(sb)).first->second;
}

Core::Superblock &
Core::successor(Superblock &from)
{
    // A link skips fetchSuperblock's version check: only events patch
    // code, and none fires inside one run call. (So on a link miss the
    // check is a no-op, and `from` survives it.)
    for (const Link &l : from.links) {
        if (l.pc == arch_.pc) {
            ++sbStats_.hits;
            ++sbStats_.linked;
            return *l.sb;
        }
    }
    Superblock &to = fetchSuperblock();
    // Fill the first link, then keep the second for the latest miss.
    Link &slot = from.links[0].sb ? from.links[1] : from.links[0];
    slot = Link{arch_.pc, &to};
    return to;
}

void
Core::run(uint64_t horizon)
{
    dispatch<false>(horizon);
}

bool
Core::runFenced(uint64_t horizon)
{
    return dispatch<true>(horizon);
}

template <bool kFenced>
bool
Core::dispatch(uint64_t horizon)
{
    // The hot loop of the batched engine: no scheduler scan, no
    // event-heap peek — just decoded superblocks until the horizon.
    // A block's instructions execute from a dense local array, so the
    // per-instruction work is one bounds-free dispatch, and a block
    // that ran to its end chains to the next without a lookup. A
    // consumed throttle may overshoot the horizon, exactly as one
    // step() can. A parked fenced run resumes inside its block.
    if (!kFenced && parked_)
        panic("core %u: unfenced run with a parked access", id_);
    Superblock *sb = parkBlock_;
    size_t i = parkIndex_;
    parkBlock_ = nullptr;
    Superblock *done = nullptr; // the block that last ran to its end
    while (cycle_ < horizon) {
        if (!sb) {
            if (throttleActive_) {
                // Nap windows are re-checked before every instruction
                // in the reference engine, so an armed throttle keeps
                // the core on the per-instruction path. (A core that
                // parked here re-checks at the same cycle: no-op.)
                done = nullptr;
                if (consumeThrottles())
                    continue;
                if (!proc_ || proc_->state() != ProcState::Running)
                    return false;
                if (!execute<kFenced>(proc_->inst(arch_.pc)))
                    return true;
                continue;
            }
            if (!proc_ || proc_->state() != ProcState::Running)
                return false;
            sb = done ? &successor(*done) : &fetchSuperblock();
            i = 0;
        }
        const MInst *insts = sb->insts.data();
        const size_t n = sb->insts.size();
        for (; i < n; ++i) {
            if (cycle_ >= horizon)
                return false;
            if (!execute<kFenced>(insts[i])) {
                parkBlock_ = sb;
                parkIndex_ = i;
                return true;
            }
        }
        done = sb;
        sb = nullptr;
    }
    return false;
}

void
Core::fireFlipWatches(isa::CodeAddr target)
{
    // Kept out of the transfer fast path: watches exist only while
    // a dispatched flip has not yet taken effect. Ranges of different
    // functions are disjoint, so at most one entry covers `target`.
    // It is detached before the hook runs; its watches then fire in
    // arming order, deterministically, before the transfer's cycle
    // cost is charged — and cost nothing themselves.
    for (auto it = flipWatches_.begin(); it != flipWatches_.end(); ++it) {
        if (target < it->lo || target >= it->hi)
            continue;
        WatchedFunction fired = std::move(*it);
        flipWatches_.erase(it);
        if (flipHook_) {
            for (uint64_t id : fired.ids)
                flipHook_(id, target != fired.entry, cycle_);
        }
        return;
    }
}

void
Core::armFlipWatch(const FlipWatch &w)
{
    WatchedFunction *mine = nullptr;
    for (WatchedFunction &f : flipWatches_) {
        if (f.func == w.func)
            mine = &f;
        else if (w.lo < f.hi && f.lo < w.hi)
            panic("core %u: flip watch [%u, %u) for function %u "
                  "overlaps function %u's [%u, %u)", id_, w.lo, w.hi,
                  w.func, f.func, f.lo, f.hi);
    }
    if (!mine)
        mine = &flipWatches_.emplace_back();
    mine->func = w.func;
    mine->lo = w.lo;
    mine->hi = w.hi;
    mine->entry = w.entry;
    mine->ids.push_back(w.id);
}

} // namespace sim
} // namespace protean
