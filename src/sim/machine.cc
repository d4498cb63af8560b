#include "sim/machine.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace protean {
namespace sim {

namespace {
Engine g_defaultEngine = Engine::Batch;
} // namespace

Engine
defaultEngine()
{
    return g_defaultEngine;
}

void
setDefaultEngine(Engine e)
{
    g_defaultEngine = e;
}

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), memsys_(std::make_unique<MemorySystem>(cfg)),
      engine_(g_defaultEngine)
{
    for (uint32_t c = 0; c < cfg.numCores; ++c)
        cores_.push_back(std::make_unique<Core>(c, cfg_, *memsys_));
    // This machine's clock stamps all trace events until it dies (or
    // a newer machine takes over; clocks stack, see obs::Tracer).
    obs::tracer().setClock([this] { return now_; }, this);
}

Machine::~Machine()
{
    obs::tracer().clearClock(this);
}

Core &
Machine::core(uint32_t id)
{
    if (id >= cores_.size())
        panic("machine: bad core %u", id);
    return *cores_[id];
}

const Core &
Machine::core(uint32_t id) const
{
    if (id >= cores_.size())
        panic("machine: bad core %u", id);
    return *cores_[id];
}

Process &
Machine::load(const isa::Image &image, uint32_t core_id)
{
    Core &c = core(core_id);
    if (c.process() && c.process()->state() == ProcState::Running)
        fatal("machine: core %u already busy with %s", core_id,
              c.process()->name().c_str());
    auto proc = std::make_unique<Process>(
        static_cast<uint32_t>(procs_.size()), image);
    procs_.push_back(std::move(proc));
    c.syncIdleClock(now_);
    c.bind(procs_.back().get());
    return *procs_.back();
}

void
Machine::unload(uint32_t core_id)
{
    Core &c = core(core_id);
    if (c.process())
        c.process()->setState(ProcState::Halted);
    c.bind(nullptr);
}

Process &
Machine::process(uint32_t proc_id)
{
    if (proc_id >= procs_.size())
        panic("machine: bad process %u", proc_id);
    return *procs_[proc_id];
}

Core *
Machine::nextCore()
{
    Core *best = nullptr;
    for (auto &c : cores_) {
        if (c->runnable() && (!best || c->cycle() < best->cycle()))
            best = c.get();
    }
    return best;
}

void
Machine::run(uint64_t until_cycle)
{
    if (engine_ == Engine::Step)
        runStep(until_cycle);
    else
        runBatch(until_cycle);
}

void
Machine::runStep(uint64_t until_cycle)
{
    for (;;) {
        Core *c = nextCore();
        uint64_t core_t = c ? c->cycle() : UINT64_MAX;
        uint64_t event_t =
            events_.empty() ? UINT64_MAX : events_.topCycle();

        uint64_t t = std::min(core_t, event_t);
        if (t >= until_cycle) {
            now_ = until_cycle;
            break;
        }

        if (event_t <= core_t) {
            EventHeap::Entry e = events_.pop();
            now_ = event_t;
            e.fn();
        } else {
            now_ = core_t;
            c->step();
        }
    }
}

void
Machine::runBatch(uint64_t until_cycle)
{
    for (;;) {
        // The scheduler's choice (min cycle, exactly nextCore()), and
        // whether a second runnable core makes the window joint.
        Core *best = nullptr;
        bool joint = false;
        for (auto &u : cores_) {
            Core *k = u.get();
            if (!k->runnable())
                continue;
            if (best)
                joint = true;
            if (!best || k->cycle() < best->cycle())
                best = k;
        }

        uint64_t core_t = best ? best->cycle() : UINT64_MAX;
        uint64_t event_t =
            events_.empty() ? UINT64_MAX : events_.topCycle();

        uint64_t t = std::min(core_t, event_t);
        if (t >= until_cycle) {
            now_ = until_cycle;
            break;
        }

        if (event_t <= core_t) {
            EventHeap::Entry e = events_.pop();
            now_ = event_t;
            e.fn();
            continue;
        }

        // The window ends at the next event or the until-cycle (both
        // fire when the min core cycle reaches them: `t >= bound`).
        uint64_t horizon = std::min(event_t, until_cycle);
        now_ = core_t;
        if (!joint) {
            // One runnable core owns the whole window.
            best->run(horizon);
            continue;
        }

        // Joint multi-core window. Cores interact only through the
        // shared half of a memory access (L3, the DRAM queue,
        // prefetch) — never through events (none fire inside the
        // window), throttles or private caches (core-local). So every
        // runnable core runs fenced up to its first access that
        // reaches L3, in any order. Then the parked shared halves run
        // in the Step engine's (cycle, id) order, each core running
        // fenced again to its next park after its own.
        std::vector<Core *> parked;
        for (auto &u : cores_) {
            Core *k = u.get();
            if (k->runnable() && k->cycle() < horizon &&
                k->runFenced(horizon))
                parked.push_back(k);
        }
        while (!parked.empty()) {
            size_t first = 0;
            for (size_t j = 1; j < parked.size(); ++j) {
                const Core *a = parked[j];
                const Core *b = parked[first];
                if (a->cycle() < b->cycle() ||
                    (a->cycle() == b->cycle() && a->id() < b->id()))
                    first = j;
            }
            if (!parked[first]->runFenced(horizon)) {
                parked[first] = parked.back();
                parked.pop_back();
            }
        }
    }
}

void
Machine::runToCompletion(uint64_t max_cycles)
{
    uint64_t cap = now_ + max_cycles;
    while (!allHalted() && now_ < cap) {
        uint64_t chunk = std::min<uint64_t>(cap - now_, 1 << 20);
        run(now_ + chunk);
    }
    if (!allHalted())
        warn("runToCompletion: cycle cap reached before halt");
}

bool
Machine::allHalted() const
{
    for (const auto &c : cores_) {
        if (c->runnable())
            return false;
    }
    return true;
}

void
Machine::startObsSampling(double period_ms)
{
    if (obsSampling_)
        return;
    // Sampling only feeds the tracer; with it disabled, scheduling
    // per-period events would just churn the event heap for nothing.
    if (!obs::tracer().enabled())
        return;
    obsSampling_ = true;
    obsPeriod_ = std::max<uint64_t>(msToCycles(period_ms), 1);
    obsLast_.resize(cores_.size());
    obsLanes_.resize(cores_.size());
    for (size_t c = 0; c < cores_.size(); ++c) {
        obsLast_[c] = cores_[c]->hpm();
        obsLanes_[c] = strformat("sim.core%zu", c);
    }
    obsLastDram_ = memsys_->dramAccesses();
    scheduleAfter(obsPeriod_, [this] { obsSample(); });
}

void
Machine::obsSample()
{
    obs::Tracer &tr = obs::tracer();
    if (!tr.enabled()) {
        // Tracer turned off mid-run: stop sampling; a later
        // startObsSampling may arm it again.
        obsSampling_ = false;
        return;
    }
    for (size_t c = 0; c < cores_.size(); ++c) {
        HpmCounters delta = cores_[c]->hpm() - obsLast_[c];
        obsLast_[c] = cores_[c]->hpm();
        const std::string &lane = obsLanes_[c];
        tr.counter(lane, "ipc", delta.ipc());
        tr.counter(lane, "l3_misses",
                   static_cast<double>(delta.l3Misses));
        tr.counter(lane, "nap_share",
                   delta.cycles == 0 ? 0.0 :
                   static_cast<double>(delta.nappedCycles) /
                   static_cast<double>(delta.cycles));
    }
    uint64_t dram = memsys_->dramAccesses();
    tr.counter("sim.mem", "dram_accesses",
               static_cast<double>(dram - obsLastDram_));
    obsLastDram_ = dram;
    scheduleAfter(obsPeriod_, [this] { obsSample(); });
}

void
Machine::exportObsMetrics() const
{
    obs::MetricsRegistry &reg = obs::metrics();
    // Counters are monotonic; publish cumulative totals by topping
    // each one up to the live value, so repeated exports stay
    // idempotent.
    auto top_up = [&reg](const std::string &name, uint64_t total) {
        obs::Counter &c = reg.counter(name);
        c.inc(total - std::min(total, c.value()));
    };
    uint64_t l3_misses = 0;
    for (size_t c = 0; c < cores_.size(); ++c) {
        const HpmCounters &h = cores_[c]->hpm();
        std::string p = strformat("sim.core%zu.", c);
        top_up(p + "instructions", h.instructions);
        top_up(p + "cycles", h.cycles);
        top_up(p + "branches", h.branches);
        top_up(p + "l3.misses", h.l3Misses);
        top_up(p + "stolen_cycles", h.stolenCycles);
        top_up(p + "napped_cycles", h.nappedCycles);
        reg.gauge(p + "ipc").set(h.ipc());
        l3_misses += h.l3Misses;
    }
    top_up("sim.l3.misses", l3_misses);
    top_up("sim.dram.accesses", memsys_->dramAccesses());
}

void
Machine::schedule(uint64_t cycle, std::function<void()> fn)
{
    if (cycle < now_)
        panic("machine: scheduling into the past (%llu < %llu)",
              static_cast<unsigned long long>(cycle),
              static_cast<unsigned long long>(now_));
    events_.push(EventHeap::Entry{cycle, eventSeq_++, std::move(fn)});
}

} // namespace sim
} // namespace protean
