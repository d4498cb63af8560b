/**
 * @file
 * The protean code runtime (paper Section III-B).
 *
 * ProteanRuntime assembles the runtime mechanisms — attachment, EVT
 * management, the asynchronous dynamic compiler, PC sampling, HPM
 * monitoring — and drives a pluggable DecisionEngine on a periodic
 * tick. The runtime's own work (sampling, analysis, compiles) is
 * charged to a designated core, which may be the host's own core or
 * a separate one (Figures 5/6 of the paper study exactly this).
 */

#ifndef PROTEAN_RUNTIME_RUNTIME_H
#define PROTEAN_RUNTIME_RUNTIME_H

#include <memory>
#include <unordered_map>

#include "obs/hdr.h"
#include "runtime/attach.h"
#include "runtime/compiler.h"
#include "runtime/evt_manager.h"
#include "runtime/monitor.h"
#include "runtime/profiler.h"
#include "runtime/qos.h"

namespace protean {
namespace runtime {

class ProteanRuntime;

/** Policy plug-in invoked on every monitoring tick. */
class DecisionEngine
{
  public:
    virtual ~DecisionEngine() = default;

    /** Called once when the runtime starts. */
    virtual void onStart(ProteanRuntime &rt) { (void)rt; }

    /** Called every tick after monitoring updates. */
    virtual void onTick(ProteanRuntime &rt) = 0;
};

/** Runtime configuration. */
struct RuntimeOptions
{
    /** Core charged with runtime work (compiles, analysis). */
    uint32_t runtimeCore = 0;
    /** Monitoring tick period. */
    double tickMs = 5.0;
    /** Modeled analysis cost per tick, in cycles. */
    uint64_t tickCostCycles = 60;
    /** Dynamic-compile cost model. */
    codegen::CompileCostModel costModel;
    /**
     * Compile backend (non-owning; must outlive the runtime).
     * nullptr = a local backend on runtimeCore (the single-server
     * behavior); a fleet::RemoteBackend shares compiles fleet-wide.
     */
    CompileBackend *compileBackend = nullptr;
    /**
     * On-stack replacement: when a variant is dispatched, also
     * redirect the loop back-edges of every other lowering of the
     * function at its OSR points, so an *executing* long-running
     * loop flips at its next back-edge instead of waiting for
     * function re-entry (DESIGN.md §14). Compensation is
     * register/stack identity for the restricted NT-mask transform.
     * Off by default: entry-flip-only, the pre-OSR behavior.
     */
    bool osr = false;
    /** Cycles charged per OSR redirect (table walk/bookkeeping). */
    uint64_t osrBaseCycles = 40;
    /** Cycles charged per back-edge branch actually patched. */
    uint64_t osrPatchCycles = 4;
};

/**
 * Point-in-time flip-*effect* latency accounting: request →
 * new-variant code first executing on the host core. Distinct from
 * resolve latency (request → variant installed): a dispatched flip
 * whose function never re-enters has resolved but taken no effect —
 * exactly the hot-loop tail OSR collapses. Pending flips are
 * censored at `now` without mutating state.
 */
struct FlipEffectStats
{
    uint64_t entryFlips = 0;   ///< Took effect at function re-entry.
    uint64_t osrFlips = 0;     ///< Took effect mid-loop via OSR.
    uint64_t pending = 0;      ///< Dispatched, not yet in effect.
    uint64_t worstEntry = 0;   ///< Worst entry-flip latency (cycles).
    uint64_t worstOsr = 0;     ///< Worst OSR-flip latency (cycles).
    uint64_t worstPending = 0; ///< Oldest pending flip, censored.

    /** Worst-case effect latency across fired and pending flips. */
    uint64_t worst() const
    {
        uint64_t w = worstEntry > worstOsr ? worstEntry : worstOsr;
        return w > worstPending ? w : worstPending;
    }
};

/** The runtime process attached to one host. */
class ProteanRuntime
{
  public:
    /**
     * Attach to a host process.
     * Fatal when the host carries no embedded IR.
     */
    ProteanRuntime(sim::Machine &machine, sim::Process &host,
                   const RuntimeOptions &opts = RuntimeOptions{});

    ~ProteanRuntime();

    /** Install the decision engine (must outlive the runtime). */
    void setEngine(DecisionEngine *engine) { engine_ = engine; }

    /** Begin ticking. */
    void start();

    /** Stop ticking (the host keeps running). */
    void stop();

    // --- Services for engines.
    sim::Machine &machine() { return machine_; }
    sim::Process &host() { return host_; }
    uint32_t hostCore() const { return host_.coreId(); }
    uint32_t runtimeCore() const { return opts_.runtimeCore; }

    const ir::Module &module() const { return *att_.module; }
    EvtManager &evt() { return *evt_; }
    RuntimeCompiler &compiler() { return *compiler_; }
    PcSampler &sampler() { return *sampler_; }
    HpmMonitor &hpm() { return *hpm_; }
    NapGovernor &napGovernor() { return *governor_; }

    /**
     * Attach a continuous profiler (idempotent). Samples are
     * attributed by variant and phase from then on; flips dispatched
     * through deployVariant open flip experiments. Profiling is
     * strictly opt-in: without this call the only added cost on the
     * monitoring path is one null check per sample.
     */
    void enableProfiling(const ProfilerOptions &opts
                         = ProfilerOptions{});

    /** The attached profiler, or nullptr when profiling is off. */
    VariantProfiler *profiler() { return profiler_.get(); }

    /**
     * Compile (or fetch) a variant and dispatch it through the EVT
     * once ready. No-op callback variant of the common pattern.
     */
    void deployVariant(ir::FuncId func, const BitVector &mask,
                       std::function<void()> on_dispatched = {});

    /** Revert every virtualized function to its original code. */
    void revertAll();

    /** Charge ad-hoc runtime work (engines' own analysis). */
    void chargeWork(uint64_t cycles);

    /** Flip-effect latency snapshot; pending flips censored at
     *  `now` (non-mutating — repeatable at barriers). */
    FlipEffectStats flipEffectStats(uint64_t now) const;

    /** Cumulative flip-effect latency histograms (cycles). */
    const obs::HdrHistogram &flipEffectEntry() const
    {
        return flipEntryHist_;
    }
    const obs::HdrHistogram &flipEffectOsr() const
    {
        return flipOsrHist_;
    }

    /** Merge-and-clear the since-last-drain flip-effect windows into
     *  the given histograms (telemetry scrape). */
    void drainFlipEffectWindow(obs::HdrHistogram &entry_h,
                               obs::HdrHistogram &osr_h);

    /** OSR redirects performed / back-edge branches patched. */
    uint64_t osrRedirects() const { return osrRedirects_; }
    uint64_t osrPatchesWritten() const { return osrPatches_; }

    /** Total cycles the runtime has consumed so far. */
    uint64_t runtimeCycles() const { return runtimeCycles_; }

    /** Fraction of all server cycles consumed by the runtime since
     *  attach. */
    double serverCycleShare() const;

    uint64_t ticks() const { return ticks_; }

  private:
    sim::Machine &machine_;
    sim::Process &host_;
    RuntimeOptions opts_;
    Attachment att_;
    std::unique_ptr<EvtManager> evt_;
    std::unique_ptr<RuntimeCompiler> compiler_;
    std::unique_ptr<PcSampler> sampler_;
    std::unique_ptr<HpmMonitor> hpm_;
    std::unique_ptr<NapGovernor> governor_;
    std::unique_ptr<VariantProfiler> profiler_;
    DecisionEngine *engine_ = nullptr;
    bool running_ = false;
    bool destroyed_ = false;
    std::shared_ptr<bool> alive_;
    uint64_t ticks_ = 0;
    uint64_t runtimeCycles_ = 0;
    uint64_t attachCycle_ = 0;

    /** Request cycle of each dispatched flip whose effect has not
     *  been observed yet, by flip-watch id. */
    std::unordered_map<uint64_t, uint64_t> pendingFlips_;
    obs::HdrHistogram flipEntryHist_;
    obs::HdrHistogram flipOsrHist_;
    /** Since-last-drain windows for the telemetry scrape. */
    obs::HdrHistogram flipEntryWindow_;
    obs::HdrHistogram flipOsrWindow_;
    uint64_t worstEntryFlip_ = 0;
    uint64_t worstOsrFlip_ = 0;
    uint64_t nextFlipId_ = 1;
    uint64_t osrRedirects_ = 0;
    uint64_t osrPatches_ = 0;

    void tick();

    /** Flip-watch fire callback (installed on the host core). */
    void onFlipEffect(uint64_t id, bool osr, uint64_t cycle);
};

} // namespace runtime
} // namespace protean

#endif // PROTEAN_RUNTIME_RUNTIME_H
