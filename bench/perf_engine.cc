/**
 * @file
 * Host-side throughput of the execution engines (DESIGN.md §8).
 *
 * Measures simulated-instructions per host second for the reference
 * Step engine against the horizon-batched Batch engine on a single
 * machine, across two workloads bracketing the engine's range: a
 * compute-bound ALU kernel (per-instruction model cost is tiny, so
 * the scheduler scan Step pays per instruction dominates — batching
 * at its best) and the memory-bound protean soplex binary (cache/
 * DRAM modeling dominates both engines, so batching only shaves the
 * smaller scheduling share). Each runs with one hot core — the
 * fleet shape — and colocated on two cores, the horizon's worst
 * case. Every configuration cross-checks its simulated totals
 * against the reference run, so a speedup that changed observable
 * behavior fails the bench instead of reporting a number. One timed
 * 8-server FleetSim run follows; it supplies the install gate's
 * cycle overhead and the wall time the off-path gates below are
 * measured against.
 *
 * Also bounds the observability off-path cost: with the tracer
 * disabled every instrumentation site reduces to one branch on
 * tracer().enabled(), so the bench times that guard directly, counts
 * how many times a traced run of the fleet takes it, asserts an
 * obs-off run records zero events, and fails if the implied overhead
 * reaches 1% of the run's wall time. The continuous profiler gets
 * the same treatment: disabled it is one null-pointer test per
 * monitoring tick (in PcSampler::sample and ProteanRuntime::tick),
 * so the bench times that test, counts the ticks the off run took,
 * and fails at 1% as well.
 *
 * Results append to a git-stamped trajectory (--out, default
 * BENCH_engine.json; schema-1 `{"schema","benchmark","runs":[...]}`)
 * rather than overwriting, so the file accumulates a perf history
 * that bench/trajectory gates on. `--min-speedup=<x>` still exits
 * nonzero when the single-proc ALU batch/step ratio falls below x,
 * which is how CI keeps the fast path honest. The multi-proc gate
 * (`--min-speedup-2proc`) only binds when the host reports >= 2
 * hardware threads and prints a skip notice otherwise. `hw_threads`
 * rides along in detail, per run and per case.
 *
 * Flags (beyond the common set): --ms=<x> (simulated run length,
 * single machine), --fleet-ms=<x>, --servers=<n>, --out=<path>,
 * --min-speedup=<x>, --min-speedup-2proc=<x> and --quick.
 */

#include "common.h"

#include <chrono>
#include <thread>

#include "fleet/fleet.h"
#include "ir/builder.h"

using namespace protean;

namespace {

/** Compute-bound kernel: a dependent ALU chain and a branch, no
 *  memory traffic — the per-instruction model cost floor. */
ir::Module
aluModule()
{
    ir::Module m("alu");
    ir::IRBuilder b(m);
    b.startFunction("main", 0);
    ir::Reg one = b.constInt(1);
    ir::Reg three = b.constInt(3);
    ir::Reg acc = b.constInt(0x9e3779b9);
    ir::Reg tmp = b.func().newReg();
    b.func().noteReg(tmp);
    ir::BlockId loop = b.newBlock();
    b.br(loop);
    b.setBlock(loop);
    b.binaryInto(tmp, ir::Opcode::Shl, acc, three);
    b.binaryInto(tmp, ir::Opcode::Xor, tmp, acc);
    b.binaryInto(acc, ir::Opcode::Add, tmp, one);
    b.binaryInto(tmp, ir::Opcode::Shr, acc, one);
    b.binaryInto(acc, ir::Opcode::Or, acc, tmp);
    b.br(loop);
    return m;
}

double
elapsedSec(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct SingleResult
{
    double wallSec = 0.0;
    uint64_t instructions = 0;
    uint64_t branches = 0;
    /** Decoded-superblock dispatch totals over all cores. Zero for
     *  the Step engine (which never dispatches superblocks); a pure
     *  function of the simulation, so host-independent. */
    uint64_t sbHits = 0;
    uint64_t sbMisses = 0;

    double ips() const
    {
        return wallSec <= 0.0 ? 0.0 :
            static_cast<double>(instructions) / wallSec;
    }
};

/** One timed single-machine run: `procs` copies of the batch app on
 *  cores 0..procs-1, advanced `ms` simulated milliseconds. */
SingleResult
runSingle(sim::Engine engine, const isa::Image &image, uint32_t procs,
          double ms)
{
    sim::Machine machine;
    machine.setEngine(engine);
    for (uint32_t c = 0; c < procs; ++c)
        machine.load(image, c);
    auto t0 = std::chrono::steady_clock::now();
    machine.runFor(machine.msToCycles(ms));
    SingleResult r;
    r.wallSec = elapsedSec(t0);
    for (uint32_t c = 0; c < machine.numCores(); ++c) {
        r.instructions += machine.core(c).hpm().instructions;
        r.branches += machine.core(c).hpm().branches;
        r.sbHits += machine.core(c).superblockStats().hits;
        r.sbMisses += machine.core(c).superblockStats().misses;
    }
    return r;
}

struct FleetResult
{
    double wallSec = 0.0;
    fleet::FleetStats stats;
};

FleetResult
runFleetTimed(uint32_t servers, double ms, uint64_t seed)
{
    fleet::FleetConfig cfg;
    cfg.numServers = servers;
    cfg.seed = seed;
    fleet::FleetSim sim(cfg);
    auto t0 = std::chrono::steady_clock::now();
    sim.run(ms);
    FleetResult r;
    r.wallSec = elapsedSec(t0);
    r.stats = sim.stats();
    return r;
}

/** Hot-loop flip-latency study (DESIGN.md §14): one run of the
 *  "hotloop" fleet scenario, whose single hot call per server spans
 *  the whole run, with mid-loop OSR redirection either off (flips
 *  wait at function entry forever — the tail censors at run end) or
 *  on (flips land at the next loop back-edge). The worst flip-effect
 *  latency of each run is a pure simulated-cycle count, so the
 *  OSR/entry ratio is host-speed independent and safe to gate on. */
fleet::FleetStats
runHotloop(uint32_t servers, double ms, uint64_t seed, bool osr)
{
    fleet::FleetConfig cfg;
    cfg.numServers = servers;
    cfg.batch = "hotloop";
    cfg.hotFuncsOnly = true;
    cfg.remoteBackend = true;
    cfg.seed = seed;
    cfg.service.replication = 2;
    cfg.osr = osr;
    fleet::FleetSim sim(cfg);
    sim.run(ms);
    return sim.stats();
}

void
checkSingleEquivalent(const SingleResult &step,
                      const SingleResult &batch, const char *what)
{
    if (step.instructions != batch.instructions ||
        step.branches != batch.branches)
        fatal("engine mismatch (%s): step retired %llu/%llu "
              "instructions/branches, batch %llu/%llu",
              what,
              static_cast<unsigned long long>(step.instructions),
              static_cast<unsigned long long>(step.branches),
              static_cast<unsigned long long>(batch.instructions),
              static_cast<unsigned long long>(batch.branches));
}

std::string
fmtIps(double ips)
{
    return strformat("%.2fM", ips / 1e6);
}

/** Seconds per tracer().enabled() check, measured with the load and
 *  test pinned in the loop (the optimizer would otherwise hoist the
 *  whole thing and report zero). */
double
guardCheckSeconds()
{
    obs::Tracer &tr = obs::tracer();
    constexpr uint64_t kIters = 50000000;
    uint64_t hits = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kIters; ++i) {
        bool e = tr.enabled();
        asm volatile("" : "+r"(e)::"memory");
        if (e)
            ++hits;
    }
    double sec = elapsedSec(t0);
    if (hits != 0)
        fatal("guard microbench: tracer was enabled mid-loop");
    return sec / static_cast<double>(kIters);
}

/** Seconds per profiler null-pointer test — the whole off-path cost
 *  of disabled continuous profiling (`if (profiler_)` in the sample
 *  and tick paths). Same hoisting defenses as guardCheckSeconds. */
double
nullCheckSeconds()
{
    runtime::VariantProfiler *p = nullptr;
    asm volatile("" : "+r"(p));
    constexpr uint64_t kIters = 50000000;
    uint64_t hits = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kIters; ++i) {
        bool e = p != nullptr;
        asm volatile("" : "+r"(e)::"memory");
        if (e)
            ++hits;
    }
    double sec = elapsedSec(t0);
    if (hits != 0)
        fatal("profiler microbench: pointer became non-null");
    return sec / static_cast<double>(kIters);
}

} // namespace

/** One (workload, proc-count) comparison. */
struct CaseResult
{
    std::string workload;
    uint32_t procs = 1;
    SingleResult step;
    SingleResult batch;

    double speedup() const
    {
        return batch.wallSec <= 0.0 ? 0.0 :
            step.wallSec / batch.wallSec;
    }
};

int
main(int argc, char **argv)
{
    double ms = 1500.0;
    double fleet_ms = 300.0;
    uint64_t servers = 8;
    std::string out = "BENCH_engine.json";
    double min_speedup = 0.0;
    double min_speedup_2proc = 0.0;
    bool quick = false;
    bench::ArgParser parser;
    parser.addFlag("ms", &ms, "simulated ms, single machine");
    parser.addFlag("fleet-ms", &fleet_ms, "simulated ms, fleet runs");
    parser.addFlag("servers", &servers, "fleet size (default 8)");
    parser.addFlag("out", &out, "JSON results path");
    parser.addFlag("min-speedup", &min_speedup,
                   "fail unless ALU batch/step >= x (0 = report only)");
    parser.addFlag("min-speedup-2proc", &min_speedup_2proc,
                   "fail unless 2-proc ALU batch/step >= x; skipped "
                   "with a notice on a <2-hw-thread host");
    parser.addSwitch("quick", &quick, "small configuration for CI");
    bench::ObsConfig obs_cfg = parser.parse(argc, argv);
    if (quick) {
        ms = 300.0;
        fleet_ms = 60.0;
    }

    ir::Module alu_m = aluModule();
    isa::Image alu = pcc::compilePlain(alu_m);
    workloads::BatchSpec spec = workloads::batchSpec("soplex");
    spec.targetStaticLoads = 0; // padding never executes
    ir::Module soplex_m = workloads::buildBatch(spec);
    isa::Image soplex = pcc::compile(soplex_m);

    // Warm-up: touch the code paths once so the first timed run does
    // not pay one-time allocation/page-in costs.
    runSingle(sim::Engine::Batch, alu, 1, ms / 20.0);
    runSingle(sim::Engine::Batch, soplex, 1, ms / 20.0);

    std::vector<CaseResult> cases;
    struct
    {
        const char *name;
        const isa::Image *image;
        std::vector<uint32_t> procCounts;
    } workloads_tbl[] = {{"alu", &alu, {1u, 2u, 4u}},
                         {"soplex", &soplex, {1u, 2u}}};
    for (const auto &w : workloads_tbl) {
        for (uint32_t procs : w.procCounts) {
            CaseResult c;
            c.workload = w.name;
            c.procs = procs;
            c.step =
                runSingle(sim::Engine::Step, *w.image, procs, ms);
            c.batch =
                runSingle(sim::Engine::Batch, *w.image, procs, ms);
            checkSingleEquivalent(
                c.step, c.batch,
                strformat("%s/%u", w.name, procs).c_str());
            cases.push_back(std::move(c));
        }
    }

    {
        TextTable t("Single machine: simulated instructions per host "
                    "second");
        t.setHeader({"Workload", "Procs", "Engine", "Wall s",
                     "Sim instrs", "Instrs/s", "Speedup"});
        for (const CaseResult &c : cases) {
            t.addRow({c.workload, strformat("%u", c.procs), "step",
                      strformat("%.3f", c.step.wallSec),
                      strformat("%llu", static_cast<unsigned long long>(
                                            c.step.instructions)),
                      fmtIps(c.step.ips()), "-"});
            t.addRow({c.workload, strformat("%u", c.procs), "batch",
                      strformat("%.3f", c.batch.wallSec),
                      strformat("%llu", static_cast<unsigned long long>(
                                            c.batch.instructions)),
                      fmtIps(c.batch.ips()),
                      bench::fmtRatio(c.speedup())});
        }
        t.print();
    }

    // ---- hot-loop OSR flip-latency tail (DESIGN.md §14) ----
    // Entry-only control vs OSR under identical traffic; the worst
    // flip-effect latencies feed the trajectory as host-independent
    // simulated-cycle ratios. Run length must exceed the deploy
    // pipeline's latency or no flip ever lands; 150 simulated ms is
    // enough at the default service timings.
    double hl_ms = std::max(fleet_ms, 150.0);
    fleet::FleetStats hl_off =
        runHotloop(4, hl_ms, obs_cfg.seed, false);
    fleet::FleetStats hl_on = runHotloop(4, hl_ms, obs_cfg.seed, true);
    uint64_t hl_worst_off = hl_off.worstFlipEffect();
    uint64_t hl_worst_on = hl_on.worstFlipEffect();
    double osr_ratio = hl_worst_off == 0 ? 0.0 :
        static_cast<double>(hl_worst_on) /
        static_cast<double>(hl_worst_off);
    double osr_reduction =
        static_cast<double>(hl_worst_off) /
        static_cast<double>(hl_worst_on ? hl_worst_on : 1);
    {
        std::printf("\n");
        TextTable t("Hot-loop scenario: worst flip-effect latency "
                    "(cycles)");
        t.setHeader({"Mode", "Worst", "Entry flips", "OSR flips",
                     "Pending"});
        t.addRow({"entry-only",
                  strformat("%llu", static_cast<unsigned long long>(
                                        hl_worst_off)),
                  strformat("%llu", static_cast<unsigned long long>(
                                        hl_off.entryFlips)),
                  strformat("%llu", static_cast<unsigned long long>(
                                        hl_off.osrFlips)),
                  strformat("%llu", static_cast<unsigned long long>(
                                        hl_off.pendingFlips))});
        t.addRow({"osr",
                  strformat("%llu", static_cast<unsigned long long>(
                                        hl_worst_on)),
                  strformat("%llu", static_cast<unsigned long long>(
                                        hl_on.entryFlips)),
                  strformat("%llu", static_cast<unsigned long long>(
                                        hl_on.osrFlips)),
                  strformat("%llu", static_cast<unsigned long long>(
                                        hl_on.pendingFlips))});
        t.print();
        std::printf("OSR cuts the worst flip-effect latency %sx "
                    "(ratio %.6f)\n",
                    bench::fmtRatio(osr_reduction).c_str(),
                    osr_ratio);
    }

    // ---- fleet: the one timed run ----
    // The tick and profiler counters bracket it for the off-path
    // gates that follow.
    uint64_t ticks_before =
        obs::metrics().counter("runtime.ticks").value();
    uint64_t prof_before =
        obs::metrics().counter("runtime.profiler.enabled").value();
    FleetResult fleet_run = runFleetTimed(
        static_cast<uint32_t>(servers), fleet_ms, obs_cfg.seed);
    uint64_t fleet_ticks =
        obs::metrics().counter("runtime.ticks").value() - ticks_before;
    std::printf("\nfleet of %llu servers: %.3f s wall, %llu host "
                "branches\n",
                static_cast<unsigned long long>(servers),
                fleet_run.wallSec,
                static_cast<unsigned long long>(
                    fleet_run.stats.hostBranches));

    // ---- observability + profiler off-path overhead ----
    double guard_sec = 0.0;
    uint64_t traced_events = 0;
    double obs_overhead = 0.0;
    double null_sec = 0.0;
    uint64_t profiler_checks = 0;
    double profiler_overhead = 0.0;
    bool obs_gate_failed = false;
    bool profiler_gate_failed = false;
    if (obs::tracer().enabled()) {
        // --trace was given: the whole bench is a traced run, so the
        // "obs off" premise does not hold; skip the gates.
        std::printf("\nobs off-path overhead: skipped under "
                    "--trace\n");
    } else {
        // The timed fleet run above is the obs-off run.
        const FleetResult &off = fleet_run;
        if (obs::tracer().eventCount() != 0)
            fatal("obs-off run recorded %zu trace events; gating is "
                  "broken",
                  obs::tracer().eventCount());
        if (obs::metrics().counter("runtime.profiler.enabled").value()
            != prof_before)
            fatal("profiler-off run enabled a profiler; gating is "
                  "broken");
        guard_sec = guardCheckSeconds();

        // How often would the off-path branch be taken? Count the
        // events an identical traced run records: every one of them
        // is a guard that passed, so it bounds the guard takes of
        // the untraced run from above within rounding.
        obs::tracer().setEnabled(true);
        runFleetTimed(static_cast<uint32_t>(servers), fleet_ms,
                      obs_cfg.seed);
        traced_events = obs::tracer().eventCount();
        obs::tracer().clear();
        obs::tracer().setEnabled(false);

        obs_overhead = off.wallSec <= 0.0 ? 0.0 :
            static_cast<double>(traced_events) * guard_sec /
                off.wallSec;
        std::printf("\nobs off-path overhead: %.2f ns/check x %llu "
                    "guarded sites hit = %.4f%% of the %.3f s fleet "
                    "run (0 events recorded)\n",
                    guard_sec * 1e9,
                    static_cast<unsigned long long>(traced_events),
                    obs_overhead * 100.0, off.wallSec);
        if (obs_overhead >= 0.01)
            obs_gate_failed = true;

        // Disabled continuous profiling costs one null test in
        // sample() and one in tick(), per monitoring tick.
        null_sec = nullCheckSeconds();
        profiler_checks = 2 * fleet_ticks;
        profiler_overhead = off.wallSec <= 0.0 ? 0.0 :
            static_cast<double>(profiler_checks) * null_sec /
                off.wallSec;
        std::printf("profiler-disabled overhead: %.2f ns/check x "
                    "%llu checks = %.4f%% of the %.3f s fleet run "
                    "(no profiler built)\n",
                    null_sec * 1e9,
                    static_cast<unsigned long long>(profiler_checks),
                    profiler_overhead * 100.0, off.wallSec);
        if (profiler_overhead >= 0.01)
            profiler_gate_failed = true;
    }

    auto case_speedup = [&cases](const char *workload,
                                 uint32_t procs) {
        for (const CaseResult &c : cases) {
            if (c.workload == workload && c.procs == procs)
                return c.speedup();
        }
        return 0.0;
    };
    double alu_speedup = case_speedup("alu", 1);
    double alu_speedup_2p = case_speedup("alu", 2);
    std::printf("\nbatch engine: %sx on the ALU kernel (1 proc), "
                "%sx at 2 procs, %sx on soplex; exports "
                "byte-identical across all modes\n",
                bench::fmtRatio(alu_speedup).c_str(),
                bench::fmtRatio(alu_speedup_2p).c_str(),
                bench::fmtRatio(case_speedup("soplex", 1)).c_str());

    if (!out.empty()) {
        // Comparable ratio series (host-speed independent); wall
        // times and counts ride in `detail`, outside the
        // trajectory-checker comparison.
        std::map<std::string, double> metrics;
        for (const CaseResult &c : cases)
            metrics[strformat("%s_speedup_%uproc",
                              c.workload.c_str(), c.procs)] =
                c.speedup();
        metrics["obs_off_overhead_fraction"] = obs_overhead;
        metrics["profiler_off_overhead_fraction"] =
            profiler_overhead;
        // Decoded-superblock dispatch hit rate over every batch
        // case: a pure simulation ratio, identical on any host.
        {
            uint64_t hits = 0;
            uint64_t misses = 0;
            for (const CaseResult &c : cases) {
                hits += c.batch.sbHits;
                misses += c.batch.sbMisses;
            }
            metrics["superblock_hit_rate"] = hits + misses == 0
                ? 0.0
                : static_cast<double>(hits) /
                    static_cast<double>(hits + misses);
        }
        // Install-gate cost of the fleet run, as a ratio of
        // simulated cycles: host-speed independent, so the
        // trajectory checker can flag a validator that gets
        // expensive relative to the compiles it guards.
        {
            const fleet::ServiceStats &fsvc = fleet_run.stats.service;
            metrics["validate_overhead_fraction"] =
                fsvc.compileCycles == 0 ? 0.0 :
                static_cast<double>(fsvc.validateCycles) /
                static_cast<double>(fsvc.compileCycles);
        }
        // Hot-loop OSR tail, both directions: the ratio the ISSUE
        // tracks (OSR/entry worst flip — lower is better, so it is
        // recorded but not gated by the higher-is-better trajectory
        // checker) and its reciprocal (entry/OSR — higher is
        // better), which perf-smoke gates on.
        metrics["osr_flip_latency_ratio"] = osr_ratio;
        metrics["osr_tail_reduction"] = osr_reduction;

        std::string detail = strformat(
            "{\"sim_ms\": %g, \"fleet_ms\": %g, \"servers\": %llu, "
            "\"hw_threads\": %u, \"cases\": [",
            ms, fleet_ms, static_cast<unsigned long long>(servers),
            std::thread::hardware_concurrency());
        for (size_t i = 0; i < cases.size(); ++i) {
            const CaseResult &c = cases[i];
            detail += strformat(
                "%s{\"workload\": \"%s\", \"procs\": %u, "
                "\"hw_threads\": %u, "
                "\"step_wall_sec\": %.6f, \"batch_wall_sec\": %.6f, "
                "\"instructions\": %llu, "
                "\"superblock_hits\": %llu, "
                "\"superblock_misses\": %llu}",
                i ? ", " : "", c.workload.c_str(), c.procs,
                std::thread::hardware_concurrency(),
                c.step.wallSec, c.batch.wallSec,
                static_cast<unsigned long long>(
                    c.step.instructions),
                static_cast<unsigned long long>(c.batch.sbHits),
                static_cast<unsigned long long>(c.batch.sbMisses));
        }
        detail += strformat(
            "], \"fleet\": {\"wall_sec\": %.6f, "
            "\"host_branches\": %llu}",
            fleet_run.wallSec,
            static_cast<unsigned long long>(
                fleet_run.stats.hostBranches));
        detail += strformat(
            ", \"osr_hotloop\": {\"sim_ms\": %g, "
            "\"worst_entry_only\": %llu, \"worst_osr\": %llu, "
            "\"entry_flips\": %llu, \"osr_flips\": %llu, "
            "\"pending_flips\": %llu, \"osr_redirects\": %llu, "
            "\"osr_patches\": %llu}",
            hl_ms,
            static_cast<unsigned long long>(hl_worst_off),
            static_cast<unsigned long long>(hl_worst_on),
            static_cast<unsigned long long>(hl_on.entryFlips),
            static_cast<unsigned long long>(hl_on.osrFlips),
            static_cast<unsigned long long>(hl_on.pendingFlips),
            static_cast<unsigned long long>(hl_on.osrRedirects),
            static_cast<unsigned long long>(hl_on.osrPatches));
        detail += strformat(
            ", \"obs_off\": {\"guard_ns\": %.3f, "
            "\"traced_events\": %llu}, "
            "\"profiler_off\": {\"check_ns\": %.3f, "
            "\"checks\": %llu}}",
            guard_sec * 1e9,
            static_cast<unsigned long long>(traced_events),
            null_sec * 1e9,
            static_cast<unsigned long long>(profiler_checks));

        uint64_t run = bench::appendTrajectoryRun(
            out, "perf_engine", quick ? "quick" : "full", metrics,
            detail);
        std::printf("appended run %llu to %s\n",
                    static_cast<unsigned long long>(run),
                    out.c_str());
    }

    bench::exportObs(obs_cfg);

    if (min_speedup > 0.0 && alu_speedup < min_speedup) {
        std::fprintf(stderr,
                     "FAIL: ALU batch/step speedup %.3f below "
                     "required %.3f\n",
                     alu_speedup, min_speedup);
        return 1;
    }
    unsigned hw_threads = std::thread::hardware_concurrency();
    if (min_speedup_2proc > 0.0) {
        // The 2-proc joint window is a simulation-side win, but a
        // 1-thread host's wall clocks are too noisy under the OS
        // scheduler to gate on; require a real multi-thread host.
        if (hw_threads < 2) {
            std::printf("SKIP: --min-speedup-2proc gate needs >= 2 "
                        "hardware threads (host reports %u)\n",
                        hw_threads);
        } else if (alu_speedup_2p < min_speedup_2proc) {
            std::fprintf(stderr,
                         "FAIL: 2-proc ALU batch/step speedup %.3f "
                         "below required %.3f\n",
                         alu_speedup_2p, min_speedup_2proc);
            return 1;
        }
    }
    if (obs_gate_failed) {
        std::fprintf(stderr,
                     "FAIL: obs off-path overhead %.4f%% reaches the "
                     "1%% budget\n",
                     obs_overhead * 100.0);
        return 1;
    }
    if (profiler_gate_failed) {
        std::fprintf(stderr,
                     "FAIL: profiler-disabled overhead %.4f%% "
                     "reaches the 1%% budget\n",
                     profiler_overhead * 100.0);
        return 1;
    }
    return 0;
}
