/**
 * @file
 * Fault injection and graceful degradation study (DESIGN.md §9).
 *
 * Sweeps fault intensity x replication factor x client retry policy
 * over the fleet compilation service and reports what the degradation
 * ladder buys: hit rate under fire, compile-cycle overhead versus the
 * benign run, retry/fallback activity, the worst-case flip latency
 * (slowest request -> variant-ready), and — the gate — host workload
 * stalls.
 *
 * The bench exits nonzero if any faulted configuration with
 * replication >= 2 and the ladder armed leaves a stalled request:
 * every request must resolve via retry, replica, or local fallback.
 * CI runs `--quick` twice and byte-diffs the exports, so the faulted
 * runs double as determinism fixtures.
 *
 * The exported configuration also runs with the telemetry plane on,
 * continuous profiling included: per-window fleet p99 flip latency
 * (TelemetryHub rollups) is printed, the variant scoreboard's
 * winning-mask table follows, and `--telemetry=<path>` writes the
 * whole plane as JSON while the common `--profile=<path>` /
 * `--flamegraph=<path>` flags export the fleet-merged profile — all
 * byte-identical across repeat runs, so CI diffs them too.
 *
 * `--slo` runs the alerting acceptance harness instead of exiting:
 * a benign run calibrates the flip-p99 threshold and must stay
 * silent; then each fault class runs alone and must raise its
 * matching burn-rate alert within a few windows of the first bad one.
 *
 * The translation-validation section (DESIGN.md §12) runs the
 * install gate against a miscompiling compiler: a clean run must
 * show zero false rejects with tier-1 overhead under 5% of compile
 * cycles, and every injected miscompile (dropped store, flipped NT
 * bit, swapped operand) must be rejected before any shard or replica
 * installs it — both conditions gate the exit code.
 * `--validate-out=<path>` writes the per-mode summary as stable-key
 * JSON (byte-identical across repeat runs, so CI diffs it), and
 * the common `--validate=<mode>` flag picks the exported
 * configuration's gate mode.
 *
 * `--hotloop` runs the on-stack-replacement acceptance study
 * (DESIGN.md §14) instead: every server executes the "hotloop" batch
 * whose single hot call spans the entire run, so entry-only flips
 * never take effect and the flip-*effect* tail is censored at the
 * run length. The study runs an entry-only control and an OSR run
 * under identical traffic (restrict with the common --osr=on|off)
 * and fails unless OSR cuts the worst-case flip-effect latency at
 * least 10x with zero validation rejects;
 * `--hotloop-out=<path>` writes the stable-key JSON summary CI
 * archives and byte-diffs.
 *
 * Flags (beyond the common set): --servers=<n>, --ms=<x> (simulated
 * run length), --mean-ms=<x> (request interarrival mean), --quick,
 * --telemetry=<path>, --validate-out=<path>, --slo, --hotloop and
 * --hotloop-out=<path>.
 */

#include "common.h"
#include "profile_report.h"

#include <algorithm>

#include "fleet/fleet.h"

using namespace protean;

namespace {

struct FaultLevel
{
    const char *name;
    faults::FaultConfig cfg;
};

struct PolicyLevel
{
    const char *name;
    fleet::RetryPolicy policy;
};

fleet::FleetStats
runFleet(uint32_t servers, double ms, double mean_ms, uint64_t seed,
         const faults::FaultConfig &faults,
         const fleet::RetryPolicy &retry, uint32_t replication,
         bool export_obs)
{
    fleet::FleetConfig cfg;
    cfg.numServers = servers;
    cfg.remoteBackend = true;
    cfg.meanRequestMs = mean_ms;
    cfg.seed = seed;
    cfg.faults = faults;
    cfg.retry = retry;
    cfg.service.replication = replication;
    fleet::FleetSim sim(cfg);
    sim.run(ms);
    if (export_obs)
        sim.exportObsMetrics();
    return sim.stats();
}

faults::FaultConfig
faultsAt(double intensity)
{
    // One scalar dials every fault stream: intensity 1.0 is the
    // "moderate" point (a shard crashes about once per 40 simulated
    // ms, 2% of requests vanish, ...), 0.0 is benign.
    faults::FaultConfig f;
    if (intensity <= 0.0)
        return f;
    f.shardCrashMeanCycles = 200000.0 / intensity;
    f.shardRestartCycles = 20000;
    f.requestDropProb = 0.02 * intensity;
    f.requestDelayProb = 0.05 * intensity;
    f.responseCorruptProb = 0.01 * intensity;
    f.cacheCorruptProb = 0.01 * intensity;
    f.serverPauseProb = 0.01 * intensity;
    return f;
}

fleet::RetryPolicy
ladder(bool hedged)
{
    fleet::RetryPolicy p;
    p.enabled = true;
    p.maxAttempts = 3;
    // Sized for this bench's service model: a worst-case queued
    // compile is tens of thousands of cycles, so 60k never fires
    // spuriously yet keeps the ladder bound well inside the run.
    p.attemptTimeoutCycles = 60000;
    p.backoffBaseCycles = 2000;
    p.backoffCapCycles = 16000;
    p.hedgeAfterCycles = hedged ? 30000 : 0;
    return p;
}

std::string
fmtU64(uint64_t v)
{
    return strformat("%llu", static_cast<unsigned long long>(v));
}

fleet::FleetConfig
telemetryFleetConfig(uint32_t servers, double mean_ms, uint64_t seed,
                     const faults::FaultConfig &faults,
                     const fleet::RetryPolicy &retry,
                     uint32_t replication)
{
    fleet::FleetConfig cfg;
    cfg.numServers = servers;
    cfg.remoteBackend = true;
    cfg.meanRequestMs = mean_ms;
    cfg.seed = seed;
    cfg.faults = faults;
    cfg.retry = retry;
    cfg.service.replication = replication;
    cfg.telemetry.enabled = true;
    return cfg;
}

/** The SLO set every telemetry run carries. Budget 0.10 over a short
 *  span of 2 and long span of 8: one bad window burns 5x/1.25x the
 *  budget, so sustained faults page on their first bad window while
 *  the clearing edge still needs two clean windows. */
void
addFleetSlos(fleet::TelemetryHub &hub, double flip_p99_threshold)
{
    auto spec = [](const char *name, const char *field,
                   double threshold) {
        obs::SloSpec s;
        s.name = name;
        s.field = field;
        s.threshold = threshold;
        s.budget = 0.10;
        s.shortWindows = 2;
        s.longWindows = 8;
        return s;
    };
    hub.addSlo(spec("crash_free", "crashes", 0));
    hub.addSlo(spec("no_request_loss", "timeouts", 0));
    hub.addSlo(spec("no_transit_delays", "delayed", 0));
    hub.addSlo(spec("response_integrity", "corrupt_responses", 0));
    hub.addSlo(spec("cache_integrity", "corrupt_rejects", 0));
    hub.addSlo(spec("pause_free", "server_pauses", 0));
    hub.addSlo(spec("flip_p99", "flip_p99", flip_p99_threshold));
}

// ------------------------------------------------------------------ //
//            Translation-validation gate (DESIGN.md §12)             //
// ------------------------------------------------------------------ //

/** One run of the install-gate study: `inject` turns on the
 *  miscompile stream (probability high enough that several of the
 *  handful of distinct content keys draw one; the draw is a pure
 *  hash, so the outcome is deterministic). */
fleet::FleetStats
runGate(uint32_t servers, double ms, double mean_ms, uint64_t seed,
        validate::Mode mode, bool inject)
{
    fleet::FleetConfig cfg;
    cfg.numServers = servers;
    cfg.remoteBackend = true;
    cfg.meanRequestMs = mean_ms;
    cfg.seed = seed;
    // The ladder is armed because a key whose every compile attempt
    // miscompiles is failed by the gate and must degrade to a local
    // compile rather than stall its waiters.
    cfg.retry = ladder(true);
    cfg.service.replication = 2;
    cfg.validate.mode = mode;
    if (inject)
        cfg.faults.miscompileProb = 0.9;
    fleet::FleetSim sim(cfg);
    sim.run(ms);
    return sim.stats();
}

/** Stats row for the gate table / JSON export. */
struct GateRow
{
    std::string config;
    validate::Mode mode;
    fleet::ServiceStats st;
    bool pass = true;
};

double
validateOverhead(const fleet::ServiceStats &st)
{
    return st.compileCycles == 0 ? 0.0 :
        static_cast<double>(st.validateCycles) /
        static_cast<double>(st.compileCycles);
}

/** The §12 acceptance: zero false rejects on clean runs, tier-1
 *  overhead under 5%, and every injected miscompile rejected at
 *  install time — zero bad installs across the fleet. Returns false
 *  if any gate condition fails. */
bool
runValidationGate(uint32_t servers, double ms, double mean_ms,
                  uint64_t seed, const std::string &out_path)
{
    bool ok = true;
    std::vector<GateRow> rows;

    // Clean traffic first: the gate must be invisible except for its
    // (bounded) cycle cost.
    {
        GateRow r;
        r.config = "clean";
        r.mode = validate::Mode::Ir;
        r.st = runGate(servers, ms, mean_ms, seed, r.mode, false)
                   .service;
        if (r.st.validateFails != 0 || r.st.compiles == 0 ||
            validateOverhead(r.st) >= 0.05)
            r.pass = ok = false;
        rows.push_back(r);
    }

    // Then a hostile compiler: every mode with the gate on must
    // reject 100% of injected miscompiles before any install.
    for (validate::Mode mode :
         {validate::Mode::Off, validate::Mode::Ir,
          validate::Mode::Diff, validate::Mode::Paranoid}) {
        GateRow r;
        r.config = "miscompiling";
        r.mode = mode;
        r.st = runGate(servers, ms, mean_ms, seed, mode, true)
                   .service;
        if (mode != validate::Mode::Off &&
            (r.st.miscompilesInjected == 0 ||
             r.st.miscompilesInstalled != 0))
            r.pass = ok = false;
        rows.push_back(r);
    }

    TextTable t("Translation-validation install gate (DESIGN.md "
                "§12): R=2, ladder armed");
    t.setHeader({"Config", "Mode", "Compiles", "Injected", "Rejected",
                 "Recompiles", "Escalated", "Bad installs",
                 "Validate/compile", "Verdict"});
    for (const GateRow &r : rows) {
        bool off = r.mode == validate::Mode::Off;
        t.addRow({r.config, validate::modeName(r.mode),
                  fmtU64(r.st.compiles),
                  off ? "?" : fmtU64(r.st.miscompilesInjected),
                  off ? "-" : fmtU64(r.st.validateFails),
                  off ? "-" : fmtU64(r.st.validateRecompiles),
                  off ? "-" : fmtU64(r.st.validateEscalations),
                  off ? "?" : fmtU64(r.st.miscompilesInstalled),
                  off ? "-" :
                        bench::fmtRatio(validateOverhead(r.st)),
                  off ? "blind" : r.pass ? "PASS" : "FAIL"});
    }
    t.print();
    std::printf("\nwith the gate off the service cannot even count "
                "the bad builds it installs; any gated mode must "
                "show zero bad installs and the clean run zero "
                "false rejects (tier-1 overhead < 5%%)\n");

    if (!out_path.empty()) {
        // Stable-key JSON for the CI determinism byte-diff: rows in
        // fixed order, keys alphabetical, no git stamp or host data.
        std::string json = "{\n\"schema\": 1,\n\"rows\": [\n";
        for (size_t i = 0; i < rows.size(); ++i) {
            const GateRow &r = rows[i];
            json += strformat(
                "  {\"bad_installs\": %llu, \"compiles\": %llu, "
                "\"config\": \"%s\", \"escalations\": %llu, "
                "\"injected\": %llu, \"mode\": \"%s\", "
                "\"recompiles\": %llu, \"rejected\": %llu, "
                "\"validate_cycles\": %llu}%s\n",
                static_cast<unsigned long long>(
                    r.st.miscompilesInstalled),
                static_cast<unsigned long long>(r.st.compiles),
                r.config.c_str(),
                static_cast<unsigned long long>(
                    r.st.validateEscalations),
                static_cast<unsigned long long>(
                    r.st.miscompilesInjected),
                validate::modeName(r.mode),
                static_cast<unsigned long long>(
                    r.st.validateRecompiles),
                static_cast<unsigned long long>(r.st.validateFails),
                static_cast<unsigned long long>(r.st.validateCycles),
                i + 1 < rows.size() ? "," : "");
        }
        json += "]\n}\n";
        std::FILE *f = std::fopen(out_path.c_str(), "w");
        if (!f)
            fatal("cannot open %s for writing", out_path.c_str());
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("wrote validation summary to %s\n",
                    out_path.c_str());
    }
    return ok;
}

// ------------------------------------------------------------------ //
//        Hot-loop OSR flip-latency tail study (DESIGN.md §14)        //
// ------------------------------------------------------------------ //

/**
 * One hot-loop fleet run: every server executes the "hotloop" batch,
 * whose single hot call from main spans the entire run, and the
 * directive catalog is restricted to the hot kernels. With OSR off
 * this is the worst case for entry-only flips — every dispatched
 * variant stays pending forever, so the flip-effect tail is censored
 * at the whole run length. With OSR on the same flips land at the
 * next loop back-edge.
 */
fleet::FleetStats
runHotloop(uint32_t servers, double ms, double mean_ms, uint64_t seed,
           validate::Mode mode, bool osr)
{
    fleet::FleetConfig cfg;
    cfg.numServers = servers;
    cfg.batch = "hotloop";
    cfg.hotFuncsOnly = true;
    cfg.remoteBackend = true;
    cfg.meanRequestMs = mean_ms;
    cfg.seed = seed;
    cfg.retry = ladder(true);
    cfg.service.replication = 2;
    cfg.validate.mode = mode;
    cfg.osr = osr;
    fleet::FleetSim sim(cfg);
    sim.run(ms);
    return sim.stats();
}

/**
 * The §14 acceptance study: entry-only control vs OSR under
 * identical traffic. `osr_mode` restricts which runs happen
 * ("on"/"off" for CI export fixtures, "both"/"" for the comparison);
 * when both run, OSR must cut the worst-case flip-effect latency by
 * at least 10x, with zero validation rejects in either run. Returns
 * false when any gate condition fails.
 */
bool
runHotloopStudy(uint32_t servers, double ms, double mean_ms,
                uint64_t seed, validate::Mode mode,
                const std::string &osr_mode,
                const std::string &out_path)
{
    struct Row
    {
        const char *name;
        fleet::FleetStats st;
    };
    std::vector<Row> rows;
    if (osr_mode != "on")
        rows.push_back({"entry-only",
                        runHotloop(servers, ms, mean_ms, seed, mode,
                                   false)});
    if (osr_mode != "off")
        rows.push_back({"osr",
                        runHotloop(servers, ms, mean_ms, seed, mode,
                                   true)});

    bool ok = true;
    TextTable t("Hot-loop flip-effect latency: entry-only vs "
                "on-stack replacement (DESIGN.md §14)");
    t.setHeader({"Mode", "Deploys", "Entry flips", "OSR flips",
                 "Pending", "Worst effect (cyc)", "Redirects",
                 "Patches", "Rejects"});
    for (const Row &r : rows) {
        t.addRow({r.name, fmtU64(r.st.deployRequests),
                  fmtU64(r.st.entryFlips), fmtU64(r.st.osrFlips),
                  fmtU64(r.st.pendingFlips),
                  fmtU64(r.st.worstFlipEffect()),
                  fmtU64(r.st.osrRedirects),
                  fmtU64(r.st.osrPatches),
                  fmtU64(r.st.service.validateFails)});
        // Both runs carry the install gate; a hot-loop variant is the
        // restricted transform like any other and must never reject.
        if (r.st.service.validateFails != 0)
            ok = false;
    }
    t.print();

    double reduction = 0.0;
    if (rows.size() == 2) {
        uint64_t worst_off = rows[0].st.worstFlipEffect();
        uint64_t worst_on =
            std::max<uint64_t>(1, rows[1].st.worstFlipEffect());
        reduction = static_cast<double>(worst_off) /
            static_cast<double>(worst_on);
        std::printf("\nworst-case flip effect: %llu cycles "
                    "(entry-only, censored at run end) -> %llu "
                    "cycles (OSR) = %.1fx reduction\n",
                    static_cast<unsigned long long>(worst_off),
                    static_cast<unsigned long long>(
                        rows[1].st.worstFlipEffect()),
                    reduction);
        if (rows[1].st.osrFlips == 0) {
            std::printf("FAIL: no flip took effect mid-loop with "
                        "OSR on\n");
            ok = false;
        }
        if (reduction < 10.0) {
            std::printf("FAIL: OSR must cut the worst-case flip "
                        "latency at least 10x (got %.1fx)\n",
                        reduction);
            ok = false;
        }
    }

    if (!out_path.empty()) {
        // Stable-key JSON for CI archiving and determinism
        // byte-diffs: rows in run order, keys alphabetical, no git
        // stamp or host data.
        std::string json = "{\n\"schema\": 1,\n\"runs\": [\n";
        for (size_t i = 0; i < rows.size(); ++i) {
            const fleet::FleetStats &st = rows[i].st;
            json += strformat(
                "  {\"deploys\": %llu, \"entry_flips\": %llu, "
                "\"mode\": \"%s\", \"osr_flips\": %llu, "
                "\"osr_patches\": %llu, \"osr_redirects\": %llu, "
                "\"pending\": %llu, \"validate_fails\": %llu, "
                "\"worst\": %llu, \"worst_entry\": %llu, "
                "\"worst_osr\": %llu, \"worst_pending\": %llu}%s\n",
                static_cast<unsigned long long>(st.deployRequests),
                static_cast<unsigned long long>(st.entryFlips),
                rows[i].name,
                static_cast<unsigned long long>(st.osrFlips),
                static_cast<unsigned long long>(st.osrPatches),
                static_cast<unsigned long long>(st.osrRedirects),
                static_cast<unsigned long long>(st.pendingFlips),
                static_cast<unsigned long long>(
                    st.service.validateFails),
                static_cast<unsigned long long>(
                    st.worstFlipEffect()),
                static_cast<unsigned long long>(st.worstEntryFlip),
                static_cast<unsigned long long>(st.worstOsrFlip),
                static_cast<unsigned long long>(st.worstPendingFlip),
                i + 1 < rows.size() ? "," : "");
        }
        json += "]";
        if (rows.size() == 2) {
            json += strformat(
                ",\n\"tail_reduction\": %s",
                obs::detail::jsonNumber(reduction).c_str());
        }
        json += "\n}\n";
        std::FILE *f = std::fopen(out_path.c_str(), "w");
        if (!f)
            fatal("cannot open %s for writing", out_path.c_str());
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("wrote hot-loop summary to %s\n",
                    out_path.c_str());
    }
    return ok;
}

/** Alerts must raise within this many windows of the first bad one. */
constexpr uint64_t kAlertWindows = 4;

/** One outage class for the acceptance harness: a single fault
 *  stream and the SLO alert it must page. */
struct SloCase
{
    const char *name;
    const char *slo;
    const char *field;
    faults::FaultConfig cfg;
};

std::vector<SloCase>
sloCases()
{
    std::vector<SloCase> cases;
    {
        faults::FaultConfig f;
        f.shardCrashMeanCycles = 200000;
        f.shardRestartCycles = 20000;
        cases.push_back({"shard crash", "crash_free", "crashes", f});
    }
    // Rates are deliberately heavy: the harness checks that a clear
    // outage pages, not how faint a fault the page can resolve.
    {
        faults::FaultConfig f;
        f.requestDropProb = 0.25;
        cases.push_back(
            {"request drop", "no_request_loss", "timeouts", f});
    }
    {
        faults::FaultConfig f;
        f.requestDelayProb = 0.25;
        cases.push_back(
            {"transit delay", "no_transit_delays", "delayed", f});
    }
    {
        faults::FaultConfig f;
        f.responseCorruptProb = 0.25;
        cases.push_back({"response corruption", "response_integrity",
                         "corrupt_responses", f});
    }
    {
        faults::FaultConfig f;
        f.cacheCorruptProb = 0.50;
        cases.push_back({"cache corruption", "cache_integrity",
                         "corrupt_rejects", f});
    }
    {
        faults::FaultConfig f;
        f.serverPauseProb = 0.02;
        cases.push_back(
            {"server pause", "pause_free", "server_pauses", f});
    }
    return cases;
}

/** Max per-window fleet flip p99 of a benign telemetry run; the
 *  calibration point for the flip_p99 SLO. */
double
calibrateFlipP99(uint32_t servers, double ms, double mean_ms,
                 uint64_t seed)
{
    fleet::FleetConfig cfg = telemetryFleetConfig(
        servers, mean_ms, seed, faultsAt(0.0), ladder(true), 2);
    fleet::FleetSim sim(cfg);
    sim.run(ms);
    sim.flushTelemetry();
    double max_p99 = 0.0;
    for (const fleet::FleetWindow &w : sim.telemetry()->windows()) {
        max_p99 = std::max(
            max_p99, static_cast<double>(w.flip.quantile(0.99)));
    }
    return max_p99;
}

/**
 * Alerting acceptance: benign run silent, every outage class pages
 * its matching alert within kAlertWindows of the first bad window.
 * Returns false (and prints why) on any miss or false alarm.
 */
bool
runSloAcceptance(uint32_t servers, double ms, double mean_ms,
                 uint64_t seed)
{
    bool ok = true;
    // Dense request traffic: rare-event classes (drops, corruptions)
    // need enough requests per window to show up at --quick scale.
    mean_ms = std::min(mean_ms, 1.0);

    // Headroom over the worst benign window: benign runs never page
    // flip_p99, faulted runs that visibly stretch the tail do.
    double benign_p99 = calibrateFlipP99(servers, ms, mean_ms, seed);
    double flip_threshold = 2.0 * std::max(benign_p99, 1000.0);
    std::printf("calibration: benign worst-window flip p99 %.0f "
                "cycles -> flip_p99 SLO threshold %.0f\n\n",
                benign_p99, flip_threshold);

    TextTable t("SLO alerting acceptance: one fault class at a time");
    t.setHeader({"Outage class", "SLO", "Bad windows", "First bad",
                 "Raised", "Verdict"});

    {
        fleet::FleetConfig cfg = telemetryFleetConfig(
            servers, mean_ms, seed, faultsAt(0.0), ladder(true), 2);
        fleet::FleetSim sim(cfg);
        addFleetSlos(*sim.telemetry(), flip_threshold);
        sim.run(ms);
        sim.flushTelemetry();
        const obs::SloMonitor &slo = sim.telemetry()->slo();
        bool silent = slo.alerts().empty();
        if (!silent)
            ok = false;
        t.addRow({"(benign)", "all silent", "0", "-", "-",
                  silent ? "PASS" : "FALSE ALARM"});
    }

    for (const SloCase &c : sloCases()) {
        fleet::FleetConfig cfg = telemetryFleetConfig(
            servers, mean_ms, seed, c.cfg, ladder(true), 2);
        fleet::FleetSim sim(cfg);
        addFleetSlos(*sim.telemetry(), flip_threshold);
        sim.run(ms);
        sim.flushTelemetry();
        const fleet::TelemetryHub &hub = *sim.telemetry();

        uint64_t first_bad = UINT64_MAX;
        uint64_t bad = 0;
        for (const fleet::FleetWindow &w : hub.windows()) {
            auto fields = w.fields();
            if (fields.at(c.field) > 0) {
                ++bad;
                first_bad = std::min(first_bad, w.index);
            }
        }
        uint64_t raised = UINT64_MAX;
        for (const obs::SloAlert &a : hub.slo().alerts()) {
            if (a.slo == c.slo) {
                raised = a.raisedWindow;
                break;
            }
        }
        const char *verdict;
        if (first_bad == UINT64_MAX) {
            // The fault stream never produced a bad window at this
            // run length: the acceptance test has no signal to
            // detect, which is itself a configuration failure.
            verdict = "NO FAULT SIGNAL";
            ok = false;
        } else if (raised == UINT64_MAX) {
            verdict = "MISSED";
            ok = false;
        } else if (raised > first_bad + kAlertWindows) {
            verdict = "TOO LATE";
            ok = false;
        } else {
            verdict = "PASS";
        }
        t.addRow({c.name, c.slo, fmtU64(bad),
                  first_bad == UINT64_MAX ? "-" : fmtU64(first_bad),
                  raised == UINT64_MAX ? "-" : fmtU64(raised),
                  verdict});
    }
    t.print();
    std::printf("\nevery outage class must page its matching alert "
                "within %llu windows; benign runs must stay "
                "silent\n",
                static_cast<unsigned long long>(kAlertWindows));
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t servers = 8;
    double ms = 300.0;
    double mean_ms = 4.0;
    bool quick = false;
    bool slo_mode = false;
    bool hotloop_mode = false;
    std::string telemetry_path;
    std::string validate_out;
    std::string hotloop_out;
    bench::ArgParser parser;
    parser.addFlag("servers", &servers, "fleet size (default 8)");
    parser.addFlag("ms", &ms, "simulated run length per config");
    parser.addFlag("mean-ms", &mean_ms,
                   "mean request interarrival per server");
    parser.addSwitch("quick", &quick, "tiny configuration for CI");
    parser.addFlag("telemetry", &telemetry_path,
                   "write the telemetry plane (windows/SLOs) as JSON");
    parser.addFlag("validate-out", &validate_out,
                   "write the validation-gate summary as stable JSON");
    parser.addSwitch("slo", &slo_mode,
                     "run the SLO alerting acceptance harness");
    parser.addSwitch("hotloop", &hotloop_mode,
                     "run the hot-loop OSR flip-latency study");
    parser.addFlag("hotloop-out", &hotloop_out,
                   "write the hot-loop summary as stable JSON");
    bench::ObsConfig obs_cfg = parser.parse(argc, argv);
    if (quick) {
        servers = 4;
        ms = 150.0;
    }
    // Parsed up front so a typo fails before any simulation runs;
    // picks the exported telemetry configuration's gate mode.
    validate::Mode export_mode = fleet::FleetConfig{}.validate.mode;
    if (!obs_cfg.validateMode.empty())
        export_mode = validate::parseMode(obs_cfg.validateMode);

    if (hotloop_mode) {
        bool ok = runHotloopStudy(static_cast<uint32_t>(servers), ms,
                                  mean_ms, obs_cfg.seed, export_mode,
                                  obs_cfg.osr,
                                  hotloop_out);
        bench::exportObs(obs_cfg);
        if (!ok) {
            std::fprintf(stderr,
                         "FAIL: hot-loop OSR study — see table "
                         "above\n");
            return 1;
        }
        return 0;
    }

    if (slo_mode) {
        bool ok = runSloAcceptance(static_cast<uint32_t>(servers), ms,
                                   mean_ms, obs_cfg.seed);
        bench::exportObs(obs_cfg);
        if (!ok) {
            std::fprintf(stderr,
                         "FAIL: SLO alerting acceptance — an outage "
                         "class went unalerted or a benign run "
                         "paged\n");
            return 1;
        }
        return 0;
    }

    bool gate_failed = false;

    fleet::FleetStats benign = runFleet(
        static_cast<uint32_t>(servers), ms, mean_ms, obs_cfg.seed,
        faultsAt(0.0), ladder(false), 1, false);
    uint64_t benign_cycles = benign.totalCompileCycles();

    {
        TextTable t("Degradation ladder: fault level x replication "
                    "x retry policy");
        t.setHeader({"Faults", "R", "Policy", "Hit rate",
                     "Cycle overhead", "Retries", "Fallbacks",
                     "Worst flip (cyc)", "Stalled"});
        std::vector<FaultLevel> levels;
        levels.push_back({"moderate", faultsAt(1.0)});
        if (!quick)
            levels.push_back({"heavy", faultsAt(3.0)});
        std::vector<PolicyLevel> policies;
        policies.push_back({"retry", ladder(false)});
        policies.push_back({"retry+hedge", ladder(true)});

        for (const FaultLevel &lv : levels) {
            for (uint32_t repl : {1u, 2u}) {
                for (const PolicyLevel &pol : policies) {
                    fleet::FleetStats st = runFleet(
                        static_cast<uint32_t>(servers), ms, mean_ms,
                        obs_cfg.seed, lv.cfg, pol.policy, repl,
                        false);
                    double overhead = benign_cycles == 0 ? 0.0 :
                        static_cast<double>(
                            st.totalCompileCycles()) /
                        static_cast<double>(benign_cycles);
                    t.addRow({lv.name, strformat("%u", repl),
                              pol.name,
                              bench::fmtRatio(
                                  st.service.hitRateOf()),
                              bench::fmtRatio(overhead),
                              fmtU64(st.client.retries),
                              fmtU64(st.client.localFallbacks),
                              fmtU64(st.client.maxResolveCycles),
                              fmtU64(st.stalledRequests)});
                    if (repl >= 2 && st.stalledRequests > 0)
                        gate_failed = true;
                }
            }
        }
        t.print();
        std::printf("\nevery request resolves via retry, replica or "
                    "local fallback; stalls gate the build\n");
    }

    if (!quick) {
        std::printf("\n");
        TextTable t("Sweep: drop probability x replication "
                    "(retry ladder, no hedge)");
        t.setHeader({"Drop", "R", "Hit rate", "Timeouts", "Retries",
                     "Fallbacks", "Worst flip (cyc)", "Stalled"});
        for (double drop : {0.0, 0.02, 0.10}) {
            for (uint32_t repl : {1u, 2u, 3u}) {
                faults::FaultConfig f;
                f.requestDropProb = drop;
                fleet::FleetStats st = runFleet(
                    static_cast<uint32_t>(servers), ms / 2.0,
                    mean_ms, obs_cfg.seed, f, ladder(false), repl,
                    false);
                t.addRow({TextTable::fmt(drop, 2),
                          strformat("%u", repl),
                          bench::fmtRatio(st.service.hitRateOf()),
                          fmtU64(st.client.timeouts),
                          fmtU64(st.client.retries),
                          fmtU64(st.client.localFallbacks),
                          fmtU64(st.client.maxResolveCycles),
                          fmtU64(st.stalledRequests)});
                if (drop > 0.0 && repl >= 2 &&
                    st.stalledRequests > 0)
                    gate_failed = true;
            }
        }
        t.print();
        std::printf("\ndropped requests cost one timeout; replicas "
                    "absorb crash losses\n");
    }

    // Translation-validation gate study: clean traffic must sail
    // through (zero false rejects, <5% tier-1 overhead), injected
    // miscompiles must all be rejected before any install.
    std::printf("\n");
    if (!runValidationGate(static_cast<uint32_t>(servers), ms,
                           mean_ms, obs_cfg.seed, validate_out))
        gate_failed = true;

    // The exported configuration: moderate faults, R=2, full ladder,
    // telemetry plane on. CI re-runs this twice and byte-diffs the
    // files — fault injection and the scrape plane must not break
    // determinism. The common
    // --validate flag picks its install-gate mode (default tier 1).
    fleet::FleetConfig ecfg = telemetryFleetConfig(
        static_cast<uint32_t>(servers), mean_ms, obs_cfg.seed,
        faultsAt(1.0), ladder(true), 2);
    ecfg.validate.mode = export_mode;
    // The shared --osr flag turns on-stack replacement on for the
    // exported config ("both" is only meaningful to --hotloop).
    ecfg.osr = obs_cfg.osr == "on";
    ecfg.telemetry.profiling = true;
    fleet::FleetSim esim(ecfg);
    esim.run(ms);
    esim.flushTelemetry();
    esim.exportObsMetrics();
    fleet::FleetStats exported = esim.stats();
    if (exported.stalledRequests > 0)
        gate_failed = true;

    {
        const fleet::TelemetryHub &hub = *esim.telemetry();
        std::printf("\n");
        TextTable t("Fleet rollups under moderate faults (10 ms "
                    "windows, scrape cost modeled)");
        t.setHeader({"Win", "End (ms)", "Requests", "Hit rate",
                     "Flips", "Flip p50", "Flip p99", "Stranded",
                     "Scrape B"});
        for (const fleet::FleetWindow &w : hub.windows()) {
            t.addRow({fmtU64(w.index),
                      TextTable::fmt(
                          static_cast<double>(w.endCycle) /
                              static_cast<double>(
                                  ecfg.machine.msToCycles(1.0)),
                          1),
                      fmtU64(w.requests),
                      bench::fmtRatio(w.hitRate),
                      fmtU64(w.flip.total()),
                      fmtU64(w.flip.quantile(0.50)),
                      fmtU64(w.flip.quantile(0.99)),
                      fmtU64(w.stranded), fmtU64(w.scrapeBytes)});
        }
        t.print();
        obs::HdrHistogram all = hub.fleetFlip();
        std::printf("\nwhole-run fleet flip latency: p50 %llu  "
                    "p95 %llu  p99 %llu  p999 %llu cycles "
                    "(%llu flips)\n",
                    static_cast<unsigned long long>(
                        all.quantile(0.50)),
                    static_cast<unsigned long long>(
                        all.quantile(0.95)),
                    static_cast<unsigned long long>(
                        all.quantile(0.99)),
                    static_cast<unsigned long long>(
                        all.quantile(0.999)),
                    static_cast<unsigned long long>(all.total()));
        std::printf("telemetry plane cost: %llu bytes shipped, "
                    "%llu network cycles, %llu server cpu cycles\n",
                    static_cast<unsigned long long>(
                        hub.scrapeBytesTotal()),
                    static_cast<unsigned long long>(
                        hub.scrapeNetworkCyclesTotal()),
                    static_cast<unsigned long long>(
                        hub.scrapeCpuCyclesTotal()));
        if (!telemetry_path.empty())
            hub.writeJson(telemetry_path);

        bench::printWinningMasks(hub);
        bench::exportFleetProfile(hub, obs_cfg);
    }
    std::printf("\nexported config: %llu crashes, %llu dropped, "
                "%llu retries, %llu fallbacks, %llu stalled\n",
                static_cast<unsigned long long>(
                    exported.service.crashes),
                static_cast<unsigned long long>(
                    exported.service.dropped),
                static_cast<unsigned long long>(
                    exported.client.retries),
                static_cast<unsigned long long>(
                    exported.client.localFallbacks),
                static_cast<unsigned long long>(
                    exported.stalledRequests));

    bench::exportObs(obs_cfg);
    if (gate_failed) {
        std::fprintf(stderr,
                     "FAIL: stalled requests under faults with "
                     "replication >= 2 — the degradation ladder "
                     "must resolve every request\n");
        return 1;
    }
    return 0;
}
