/**
 * @file
 * Host-side throughput of the execution engines (DESIGN.md §8), and
 * the off-path budgets of observability and profiling.
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
 * behavior fails the bench instead of reporting a number.
 *
 * Also bounds the observability off-path cost: with the tracer
 * disabled every instrumentation site reduces to one branch on
 * tracer().enabled(), so the bench times that guard directly, counts
 * how many times a traced run of an 8-server FleetSim takes it,
 * asserts the untraced run records zero events, and fails if the
 * implied overhead reaches 1% of the untraced run's wall time. The
 * continuous profiler gets the same treatment: disabled it is one
 * null-pointer test per monitoring tick (in PcSampler::sample and
 * ProteanRuntime::tick), so the bench times that test, counts the
 * ticks of a PC3D colocation cell run without a profiler (an
 * unprofiled FleetSim never starts the tick loop), and fails at 1%
 * of that run's wall time as well.
 *
 * Every gate is an exit code against a fixed floor. `--min-speedup`
 * fails when the single-proc ALU batch/step ratio falls below it;
 * `--min-speedup-2proc` does the same at 2 procs, but only binds
 * when the host reports >= 2 hardware threads and prints a skip
 * notice otherwise.
 *
 * Flags (beyond the common set): --ms=<x> (simulated run length,
 * single machine), --fleet-ms=<x>, --servers=<n>, --min-speedup=<x>,
 * --min-speedup-2proc=<x> and --quick.
 */

#include "common.h"

#include <chrono>
#include <thread>

#include "datacenter/experiment.h"
#include "fleet/fleet.h"
#include "ir/builder.h"
#include "runtime/runtime.h"

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

/** Simulated length of the profiler gate's colocation cell: about
 *  200 monitoring ticks at the runtime's default 5-ms period. */
constexpr double kProfilerCellMs = 1000.0;

/** Wall time and monitoring ticks of one PC3D colocation cell run
 *  `ms` simulated milliseconds with profiling off: its runtime ticks
 *  with no profiler built, so every tick pays only the null tests. */
struct CellResult
{
    double wallSec = 0.0;
    uint64_t ticks = 0;
};

CellResult
runUnprofiledCell(double ms)
{
    datacenter::ColoConfig cfg;
    cfg.system = datacenter::System::Pc3d;
    datacenter::ColoCell cell(cfg);
    runtime::ProteanRuntime &rt = *cell.runtime();
    auto t0 = std::chrono::steady_clock::now();
    cell.machine().runFor(cell.machine().msToCycles(ms));
    CellResult r;
    r.wallSec = elapsedSec(t0);
    r.ticks = rt.ticks();
    if (rt.profiler())
        fatal("profiler-off cell built a profiler; gating is broken");
    if (r.ticks == 0)
        fatal("profiler-off cell never ticked; the profiler gate "
              "would pass vacuously");
    return r;
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
    double min_speedup = 0.0;
    double min_speedup_2proc = 0.0;
    bool quick = false;
    bench::ArgParser parser;
    parser.addFlag("ms", &ms, "simulated ms, single machine");
    parser.addFlag("fleet-ms", &fleet_ms, "simulated ms, fleet runs");
    parser.addFlag("servers", &servers, "fleet size (default 8)");
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

    // ---- fleet: the one timed run, the obs gate's untraced run ----
    FleetResult fleet_run = runFleetTimed(
        static_cast<uint32_t>(servers), fleet_ms, obs_cfg.seed);
    std::printf("\nfleet of %llu servers: %.3f s wall, %llu host "
                "branches\n",
                static_cast<unsigned long long>(servers),
                fleet_run.wallSec,
                static_cast<unsigned long long>(
                    fleet_run.stats.hostBranches));

    // ---- observability + profiler off-path overhead ----
    double obs_overhead = 0.0;
    double profiler_overhead = 0.0;
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
        double guard_sec = guardCheckSeconds();

        // How often would the off-path branch be taken? Count the
        // events an identical traced run records: every one of them
        // is a guard that passed, so it bounds the guard takes of
        // the untraced run from above within rounding.
        obs::tracer().setEnabled(true);
        runFleetTimed(static_cast<uint32_t>(servers), fleet_ms,
                      obs_cfg.seed);
        uint64_t traced_events = obs::tracer().eventCount();
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

        // Disabled continuous profiling costs one null test in
        // sample() and one in tick(), per monitoring tick.
        double null_sec = nullCheckSeconds();
        CellResult cell = runUnprofiledCell(kProfilerCellMs);
        uint64_t profiler_checks = 2 * cell.ticks;
        profiler_overhead = cell.wallSec <= 0.0 ? 0.0 :
            static_cast<double>(profiler_checks) * null_sec /
                cell.wallSec;
        std::printf("profiler-disabled overhead: %.2f ns/check x "
                    "%llu checks = %.4f%% of the %.3f s PC3D cell "
                    "run (no profiler built)\n",
                    null_sec * 1e9,
                    static_cast<unsigned long long>(profiler_checks),
                    profiler_overhead * 100.0, cell.wallSec);
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
                "%sx at 2 procs, %sx on soplex; Step and Batch "
                "retired equal instruction and branch counts in "
                "every case\n",
                bench::fmtRatio(alu_speedup).c_str(),
                bench::fmtRatio(alu_speedup_2p).c_str(),
                bench::fmtRatio(case_speedup("soplex", 1)).c_str());

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
    if (obs_overhead >= 0.01) {
        std::fprintf(stderr,
                     "FAIL: obs off-path overhead %.4f%% reaches the "
                     "1%% budget\n",
                     obs_overhead * 100.0);
        return 1;
    }
    if (profiler_overhead >= 0.01) {
        std::fprintf(stderr,
                     "FAIL: profiler-disabled overhead %.4f%% "
                     "reaches the 1%% budget\n",
                     profiler_overhead * 100.0);
        return 1;
    }
    return 0;
}
