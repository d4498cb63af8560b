/**
 * @file
 * In-order simulated core.
 *
 * Single-issue, blocking loads. Each instruction costs one cycle
 * plus memory latency for loads. What an instruction means is
 * isa::execute (isa/semantics.h), shared with the validation
 * sandbox; the core is its *timing port*: timed accesses through the
 * memory system, per-op cycle costs, HPM counts, flip watches, and
 * panics on what a vetted image cannot contain. Calls use register
 * windows: the hardware call stack saves r4..r63, so compiled code
 * carries no callee-save sequences (see isa/minst.h).
 *
 * Two mechanisms external controllers use:
 *  - Napping: a duty-cycle throttle (the ReQoS/flux mechanism). With
 *    intensity f, the core sleeps for f of every nap period.
 *  - Stolen cycles: runtime work (dynamic compiles) charged to this
 *    core delays the host when they share a core.
 *
 * The core can also run in a binary-translation mode that models a
 *  DynamoRIO-style system's dispatch costs (Figure 4's baseline).
 */

#ifndef PROTEAN_SIM_CORE_H
#define PROTEAN_SIM_CORE_H

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "isa/minst.h"
#include "isa/semantics.h"
#include "sim/config.h"
#include "sim/hpm.h"
#include "sim/memsys.h"
#include "sim/process.h"

namespace protean {
namespace sim {

/**
 * Decoded superblock dispatch statistics. Core-local and engine-
 * dependent (the Step engine never dispatches superblocks), so they
 * are exposed through accessors only and must never be published to
 * the metrics registry — exports stay byte-identical across engines.
 */
struct SuperblockStats
{
    uint64_t hits = 0;          ///< Dispatches served from the cache.
    uint64_t misses = 0;        ///< Dispatches that decoded a block.
    uint64_t invalidations = 0; ///< Blocks retired by version bumps.
    uint64_t linked = 0;        ///< Hits that followed a chained link.
};

/**
 * A pending flip-effect watch: the runtime armed it when a variant
 * was dispatched for `func`, and it fires the first time control
 * transfers into the variant's code range [lo, hi). Firing at
 * `target == entry` is an entry flip (the function was re-entered
 * through the EVT); any other landing point means an OSR redirect
 * moved a mid-loop execution. Watches are pure observation: firing
 * costs zero modeled cycles, so arming them never perturbs the
 * simulation (byte-identical exports with watches on or off).
 */
struct FlipWatch
{
    uint64_t id = 0;        ///< Runtime-side correlation key.
    uint32_t func = 0;      ///< ir::FuncId being flipped.
    isa::CodeAddr lo = 0;   ///< Variant code range start (inclusive).
    isa::CodeAddr hi = 0;   ///< Variant code range end (exclusive).
    isa::CodeAddr entry = 0; ///< Variant entry point.
};

/** One simulated core. */
class Core
{
  public:
    /** Flip-watch fire callback: (watch id, was an OSR landing,
     *  core-local cycle at the transfer). */
    using FlipHook = std::function<void(uint64_t, bool, uint64_t)>;

    Core(uint32_t id, const MachineConfig &cfg, MemorySystem &memsys);

    uint32_t id() const { return id_; }

    /** Bind a process and reset architectural state to its entry. */
    void bind(Process *proc);

    /** The bound process (may be null). */
    Process *process() { return proc_; }
    const Process *process() const { return proc_; }

    /** True when this core has runnable work. */
    bool runnable() const;

    /** Local time of this core. */
    uint64_t cycle() const { return cycle_; }

    /** Advance an idle core's clock (keeps spawn-time sane). */
    void syncIdleClock(uint64_t now);

    /**
     * Execute one instruction (or consume one nap/stolen interval).
     * Only call when runnable().
     */
    void step();

    /**
     * Execute instructions until cycle() >= horizon or the core stops
     * being runnable. Each iteration is exactly one step(), so the
     * observable state after run(h) equals stepping in a loop while
     * cycle() < h — the horizon-batched engine relies on this. The
     * hot loop dispatches decoded superblocks: dense pre-resolved
     * MInst runs cached per start address and keyed on the process's
     * codeVersion(). The first block of a call is looked up (stale
     * blocks retire there); each later one follows a chained link
     * from its predecessor (DESIGN.md §13).
     */
    void run(uint64_t horizon);

    /**
     * Fenced run for the joint multi-core window (DESIGN.md §13):
     * like run(horizon), but every timed access runs only its private
     * half (L1, L2), and the core *parks* before an instruction whose
     * access would reach the shared L3. Everything executed under the
     * fence touches only core-local state, this core's private caches
     * and its process memory, so fenced runs on different cores
     * commute.
     *
     * Calling runFenced again on a parked core resumes inside the
     * parked block: the parked instruction runs its access's shared
     * half first, so the caller must resume parked cores in the Step
     * engine's (cycle, id) order and before the window ends.
     *
     * @return true when the core parked, with cycle() < horizon;
     * false when it reached the horizon or stopped being runnable.
     */
    bool runFenced(uint64_t horizon);

    /** Superblock dispatch stats (never exported; see above). */
    const SuperblockStats &superblockStats() const { return sbStats_; }

    /** Current program counter (PC-sampling interface). */
    isa::CodeAddr pc() const { return arch_.pc; }

    /** Register read (tests). */
    uint64_t reg(uint32_t r) const { return arch_.regs[r]; }

    const HpmCounters &hpm() const { return hpm_; }

    /** Nap intensity in [0, 1]: fraction of each period slept. */
    void setNapIntensity(double f);
    double napIntensity() const { return napIntensity_; }

    /** Charge runtime work to this core. */
    void stealCycles(uint64_t cycles);

    /** Enable/disable the binary-translation execution mode. */
    void setBtConfig(const BtConfig &bt);

    /** Install the flip-watch fire callback (the protean runtime). */
    void setFlipHook(FlipHook hook) { flipHook_ = std::move(hook); }

    /**
     * Arm flip watch `w.id` for a dispatch of `w.func`. The core keeps
     * one entry per watched function: arming retargets every pending
     * watch for w.func to [w.lo, w.hi) — the flip each waited for is
     * subsumed by the newer dispatch, though each keeps its identity
     * (and the runtime its request cycle) — and appends w.id. All of
     * them fire, in arming order, and are removed at the first control
     * transfer into that range. Ranges of different functions must be
     * disjoint (variants are disjoint appended code).
     */
    void armFlipWatch(const FlipWatch &w);

    /** Functions with pending (unfired) flip watches on this core. */
    size_t watchedFunctionCount() const { return flipWatches_.size(); }

  private:
    /** The timing port isa::execute runs through (core.cc). */
    template <bool kFenced>
    struct Port;

    uint32_t id_;
    const MachineConfig &cfg_;
    MemorySystem &memsys_;

    Process *proc_ = nullptr;
    isa::ArchState arch_;

    uint64_t cycle_ = 0;
    HpmCounters hpm_;

    double napIntensity_ = 0.0;
    uint64_t stolenBacklog_ = 0;
    /** True iff stolenBacklog_ > 0 || napIntensity_ > 0. Maintained
     *  by the throttle producers so the batched hot loop pays one
     *  predictable branch instead of re-deriving the disjunction per
     *  instruction. While set, run() stays on the per-instruction
     *  path: nap windows must be re-checked before every step. */
    bool throttleActive_ = false;

    BtConfig bt_;
    std::unordered_set<isa::CodeAddr> btBlocks_;

    struct Superblock;

    /** A chained successor: the block at `pc` that this block's exit
     *  went to before. kInvalidCodeAddr marks an empty link. */
    struct Link
    {
        isa::CodeAddr pc = isa::kInvalidCodeAddr;
        Superblock *sb = nullptr;
    };

    /** A straight-line run of pre-resolved instructions starting at
     *  some code address: extends up to and including the first
     *  control-flow instruction (or the decode cap). */
    struct Superblock
    {
        std::vector<isa::MInst> insts;
        /** Up to two successors (a branch's two ways; the two latest
         *  targets of a return or indirect call). Links are followed
         *  only within one run call, after fetchSuperblock() checked
         *  codeVersion(), and die with the cache they point into. */
        std::array<Link, 2> links{};
    };

    /** Bounds decode work and cache growth per dispatch miss. */
    static constexpr size_t kMaxSuperblockLen = 128;

    /** Decoded blocks by start address. unordered_map nodes are
     *  stable, so references and links survive later insertions. */
    std::unordered_map<isa::CodeAddr, Superblock> sbCache_;
    /** Process codeVersion() the cache was decoded against. */
    uint64_t sbVersion_ = 0;
    SuperblockStats sbStats_;

    /** A fenced run parked before an instruction whose access needs
     *  its shared half; the next fenced run starts with that half. */
    bool parked_ = false;
    /** The parked access's private-half probes. */
    PrivateProbe parkProbe_;
    /** Block and index the park stopped at; null when it parked on
     *  the per-instruction (throttled) path. */
    Superblock *parkBlock_ = nullptr;
    size_t parkIndex_ = 0;

    /** The pending flip watches of one function: every one waits for
     *  the function's newest dispatched variant. */
    struct WatchedFunction
    {
        uint32_t func = 0;
        isa::CodeAddr lo = 0;
        isa::CodeAddr hi = 0;
        isa::CodeAddr entry = 0;
        std::vector<uint64_t> ids; ///< In arming order.
    };

    /** One entry per function with pending watches. A function
     *  flipped again and again before it re-enters piles up watches
     *  (a mean of 203 pending per transfer on the benchmark's `fleet`
     *  workload, on at most two functions) but keeps one entry, so a
     *  control transfer pays one emptiness test with no flip pending
     *  and one range check per watched function otherwise. */
    std::vector<WatchedFunction> flipWatches_;
    FlipHook flipHook_;

    /** Returns true if the core consumed a nap/stolen interval. */
    bool consumeThrottles();

    /** Recompute throttleActive_ after a producer-side change. */
    void refreshThrottleFlag()
    {
        throttleActive_ = stolenBacklog_ > 0 || napIntensity_ > 0.0;
    }

    /** Find-or-decode the superblock starting at pc_, retiring the
     *  whole cache first when the process's code version moved. */
    Superblock &fetchSuperblock();

    /** The block at pc_ after `from` ran to its end: a chained link
     *  when one matches, else a lookup that becomes a link. */
    Superblock &successor(Superblock &from);

    /** run() (kFenced false) and runFenced() (true). */
    template <bool kFenced>
    bool dispatch(uint64_t horizon);

    /**
     * Execute one instruction. A fenced execute returns false, having
     * changed nothing, when the instruction's access must park.
     */
    template <bool kFenced>
    bool execute(const isa::MInst &inst);

    /** Latency of the instruction's timed access into `latency`; under
     *  the fence, false when the access must park instead. */
    template <bool kFenced>
    bool timedAccess(uint64_t vaddr, bool nonTemporal, uint64_t &latency);

    /** Fire-and-remove the watches of the function whose range
     *  covers `target`, if any (cold path). */
    void fireFlipWatches(isa::CodeAddr target);
};

} // namespace sim
} // namespace protean

#endif // PROTEAN_SIM_CORE_H
