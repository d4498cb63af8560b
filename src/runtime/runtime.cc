#include "runtime/runtime.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace protean {
namespace runtime {

ProteanRuntime::ProteanRuntime(sim::Machine &machine,
                               sim::Process &host,
                               const RuntimeOptions &opts)
    : machine_(machine), host_(host), opts_(opts),
      att_(attach(host)), alive_(std::make_shared<bool>(true))
{
    if (!att_.hasIr())
        fatal("ProteanRuntime: host %s carries no embedded IR",
              host.name().c_str());
    evt_ = std::make_unique<EvtManager>(host_, att_.evtBase,
                                        att_.slots);
    compiler_ = std::make_unique<RuntimeCompiler>(
        machine_, host_, *att_.module, evt_->slots(),
        opts_.runtimeCore, opts_.compileBackend);
    compiler_->setCostModel(opts_.costModel);
    sampler_ = std::make_unique<PcSampler>(machine_, host_,
                                           host_.coreId());
    hpm_ = std::make_unique<HpmMonitor>(machine_);
    governor_ = std::make_unique<NapGovernor>(machine_,
                                              host_.coreId());
    attachCycle_ = machine_.now();
    // Flip-effect watches fire on the host core's control transfers; the
    // alive guard covers watches outliving this runtime.
    machine_.core(host_.coreId())
        .setFlipHook([this, alive = alive_](uint64_t id, bool osr,
                                            uint64_t cycle) {
            if (*alive)
                onFlipEffect(id, osr, cycle);
        });
    obs::metrics().counter("runtime.attach.count").inc();
    if (obs::tracer().enabled()) {
        obs::tracer().instant(
            "runtime", "attach",
            strformat(
                "\"host\":\"%s\",\"functions\":%u,\"slots\":%zu",
                host.name().c_str(),
                static_cast<uint32_t>(att_.module->numFunctions()),
                att_.slots.size()));
    }
}

ProteanRuntime::~ProteanRuntime()
{
    *alive_ = false;
}

void
ProteanRuntime::start()
{
    if (running_)
        return;
    running_ = true;
    if (engine_)
        engine_->onStart(*this);
    machine_.scheduleAfter(machine_.msToCycles(opts_.tickMs),
                           [this, alive = alive_] {
                               if (*alive)
                                   tick();
                           });
}

void
ProteanRuntime::stop()
{
    running_ = false;
}

void
ProteanRuntime::tick()
{
    if (!running_)
        return;
    ++ticks_;
    obs::metrics().counter("runtime.ticks").inc();
    sampler_->sample();
    if (profiler_)
        profiler_->onTick();
    chargeWork(opts_.tickCostCycles);
    if (engine_)
        engine_->onTick(*this);
    machine_.scheduleAfter(machine_.msToCycles(opts_.tickMs),
                           [this, alive = alive_] {
                               if (*alive)
                                   tick();
                           });
}

void
ProteanRuntime::deployVariant(ir::FuncId func, const BitVector &mask,
                              std::function<void()> on_dispatched)
{
    obs::metrics().counter("runtime.deploy.requests").inc();
    if (obs::tracer().enabled()) {
        obs::tracer().instant(
            "runtime", "compile_enqueue",
            strformat("\"func\":%u,\"mask_bits\":%zu", func,
                      mask.count()));
    }
    uint64_t before = compiler_->compileCycles();
    uint64_t request_cycle = machine_.now();
    compiler_->requestVariant(
        func, mask,
        [this, func, request_cycle, alive = alive_,
         on_dispatched = std::move(on_dispatched)](isa::CodeAddr e) {
            if (!*alive)
                return;
            if (obs::tracer().enabled()) {
                obs::tracer().instant(
                    "runtime", "variant_dispatch",
                    strformat("\"func\":%u", func));
            }
            // Teach the PC sampler the new range, then dispatch by
            // retargeting the EVT slot.
            const VariantRecord *rec = nullptr;
            for (const auto &v : compiler_->variants()) {
                if (v.entry == e) {
                    sampler_->registerVariantRange(v.entry, v.end,
                                                   v.func, v.key);
                    if (profiler_)
                        profiler_->onFlipDispatched(v.func, v.key);
                    rec = &v;
                    break;
                }
            }
            if (evt_->virtualized(func)) {
                evt_->retarget(func, e);
                if (rec) {
                    // Watch for the flip taking *effect*: any pending
                    // watch for this function now waits for the newer
                    // variant (its flip is subsumed), and the fresh
                    // dispatch gets its own watch. Pure observation —
                    // zero modeled cycles.
                    uint64_t id = nextFlipId_++;
                    machine_.core(host_.coreId())
                        .armFlipWatch({id, func, rec->entry, rec->end,
                                       rec->entry});
                    pendingFlips_.emplace(id, request_cycle);
                    if (opts_.osr &&
                        compiler_->osrSiteCount(func) > 0) {
                        uint32_t patches =
                            compiler_->osrRedirect(func, rec->entry);
                        ++osrRedirects_;
                        osrPatches_ += patches;
                        obs::metrics()
                            .counter("runtime.osr.redirects").inc();
                        obs::metrics()
                            .counter("runtime.osr.patches")
                            .inc(patches);
                        chargeWork(opts_.osrBaseCycles +
                                   opts_.osrPatchCycles * patches);
                    }
                }
            } else {
                warn("deployVariant: %u is not virtualized; variant "
                     "compiled but not dispatched", func);
            }
            if (on_dispatched)
                on_dispatched();
        });
    runtimeCycles_ += compiler_->compileCycles() - before;
}

void
ProteanRuntime::enableProfiling(const ProfilerOptions &opts)
{
    if (profiler_)
        return;
    profiler_ = std::make_unique<VariantProfiler>(
        machine_, host_.coreId(), *att_.module, opts);
    sampler_->setProfiler(profiler_.get());
    obs::metrics().counter("runtime.profiler.enabled").inc();
}

void
ProteanRuntime::revertAll()
{
    evt_->revertAll();
    if (opts_.osr) {
        // Undo OSR redirects too: every flipped function's back-edges
        // return to the static lowering's loop headers, so a running
        // loop falls back to original code at its next back-edge.
        std::vector<bool> done(att_.module->numFunctions(), false);
        for (const auto &v : compiler_->variants()) {
            if (done[v.func])
                continue;
            done[v.func] = true;
            compiler_->osrRedirect(
                v.func, host_.image().function(v.func).entry);
        }
    }
}

void
ProteanRuntime::onFlipEffect(uint64_t id, bool osr, uint64_t cycle)
{
    auto it = pendingFlips_.find(id);
    if (it == pendingFlips_.end())
        return;
    uint64_t req = it->second;
    pendingFlips_.erase(it);
    uint64_t lat = cycle > req ? cycle - req : 0;
    if (osr) {
        flipOsrHist_.record(lat);
        flipOsrWindow_.record(lat);
        if (lat > worstOsrFlip_)
            worstOsrFlip_ = lat;
        obs::metrics().counter("runtime.flip.effect_osr").inc();
    } else {
        flipEntryHist_.record(lat);
        flipEntryWindow_.record(lat);
        if (lat > worstEntryFlip_)
            worstEntryFlip_ = lat;
        obs::metrics().counter("runtime.flip.effect_entry").inc();
    }
}

FlipEffectStats
ProteanRuntime::flipEffectStats(uint64_t now) const
{
    FlipEffectStats s;
    s.entryFlips = flipEntryHist_.total();
    s.osrFlips = flipOsrHist_.total();
    s.worstEntry = worstEntryFlip_;
    s.worstOsr = worstOsrFlip_;
    s.pending = pendingFlips_.size();
    for (const auto &[id, request_cycle] : pendingFlips_) {
        uint64_t lat = now > request_cycle ? now - request_cycle : 0;
        if (lat > s.worstPending)
            s.worstPending = lat;
    }
    return s;
}

void
ProteanRuntime::drainFlipEffectWindow(obs::HdrHistogram &entry_h,
                                      obs::HdrHistogram &osr_h)
{
    entry_h.merge(flipEntryWindow_);
    osr_h.merge(flipOsrWindow_);
    flipEntryWindow_.clear();
    flipOsrWindow_.clear();
}

void
ProteanRuntime::chargeWork(uint64_t cycles)
{
    machine_.core(opts_.runtimeCore).stealCycles(cycles);
    runtimeCycles_ += cycles;
    obs::metrics().counter("runtime.cycles").inc(cycles);
}

double
ProteanRuntime::serverCycleShare() const
{
    uint64_t elapsed = machine_.now() - attachCycle_;
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(runtimeCycles_) /
        (static_cast<double>(elapsed) * machine_.numCores());
}

} // namespace runtime
} // namespace protean
