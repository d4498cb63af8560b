/**
 * @file
 * Shared helpers for the figure-regeneration benches.
 *
 * The simulator is deterministic, so overheads are measured as exact
 * ratios of retired branches over a fixed cycle window (branches are
 * control-invariant under every transformation studied, which is why
 * the paper uses BPS for host progress).
 */

#ifndef PROTEAN_BENCH_COMMON_H
#define PROTEAN_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pcc/pcc.h"
#include "sim/machine.h"
#include "support/logging.h"
#include "support/table.h"
#include "workloads/registry.h"

namespace protean {
namespace bench {

/**
 * Observability exports requested on the command line. Every fig
 * bench accepts `--trace=<path>` (Chrome trace JSON, open in
 * Perfetto) and `--metrics=<path>` (metrics-registry snapshot);
 * timestamps are simulated cycles, so repeated runs produce
 * byte-identical files.
 */
struct ObsConfig
{
    std::string tracePath;
    std::string metricsPath;
    /** Merged continuous-profile JSON export (--profile). */
    std::string profilePath;
    /** Folded-stack export for flamegraph.pl (--flamegraph). */
    std::string flamegraphPath;
    /** Root seed for any stochastic model in the bench (--seed). */
    uint64_t seed = 42;
    /** Translation-validation install-gate mode for fleet benches
     *  (--validate=off|ir|diff|paranoid; empty keeps each bench's
     *  default). Kept as a string so common.h stays independent of
     *  src/validate; benches parse it with validate::parseMode. */
    std::string validateMode;
    /** On-stack replacement mode for fleet benches
     *  (--osr=on|off|both; empty keeps each bench's default).
     *  "both" is only meaningful to comparison studies such as
     *  fleet_faults --hotloop. */
    std::string osr;
};

/**
 * Small command-line flag parser for the benches.
 *
 * Built-in flags: `--trace=<path>`, `--metrics=<path>`,
 * `--seed=<n>`, `--engine=step|batch` and `-v`. `--engine` sets the
 * process-wide default execution engine, so every bench opts into
 * (or out of) the horizon-batched fast path without code changes.
 * Benches register extra flags with addFlag()/addSwitch() before
 * parse(); unknown arguments fail with the full supported-flag list
 * rather than a bare fatal.
 */
class ArgParser
{
  public:
    /** Register `--name=<value>` bound to a string. */
    void addFlag(const std::string &name, std::string *out,
                 const std::string &help)
    {
        flags_.push_back({name, help, out, nullptr, nullptr, nullptr});
    }

    /** Register `--name=<n>` bound to an unsigned integer. */
    void addFlag(const std::string &name, uint64_t *out,
                 const std::string &help)
    {
        flags_.push_back({name, help, nullptr, out, nullptr, nullptr});
    }

    /** Register `--name=<x>` bound to a double. */
    void addFlag(const std::string &name, double *out,
                 const std::string &help)
    {
        flags_.push_back({name, help, nullptr, nullptr, out, nullptr});
    }

    /** Register a valueless `--name` switch bound to a bool. */
    void addSwitch(const std::string &name, bool *out,
                   const std::string &help)
    {
        flags_.push_back({name, help, nullptr, nullptr, nullptr, out});
    }

    /**
     * Parse the command line; fatal (listing every supported flag)
     * on anything unrecognized, and fatal on a repeated flag — a
     * duplicated `--seed=1 --seed=2` is almost always a typo whose
     * silent last-one-wins resolution corrupts sweeps. (`-v` stays
     * repeatable: it is idempotent.) Arms the tracer when --trace is
     * given.
     */
    ObsConfig parse(int argc, char **argv)
    {
        ObsConfig cfg;
        std::set<std::string> seen;
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a.rfind("--trace=", 0) == 0) {
                markSeen("trace", seen);
                cfg.tracePath = a.substr(8);
            } else if (a.rfind("--metrics=", 0) == 0) {
                markSeen("metrics", seen);
                cfg.metricsPath = a.substr(10);
            } else if (a.rfind("--profile=", 0) == 0) {
                markSeen("profile", seen);
                cfg.profilePath = a.substr(10);
            } else if (a.rfind("--flamegraph=", 0) == 0) {
                markSeen("flamegraph", seen);
                cfg.flamegraphPath = a.substr(13);
            } else if (a.rfind("--seed=", 0) == 0) {
                markSeen("seed", seen);
                cfg.seed = std::strtoull(a.substr(7).c_str(),
                                         nullptr, 0);
            } else if (a.rfind("--engine=", 0) == 0) {
                markSeen("engine", seen);
                std::string e = a.substr(9);
                if (e == "step")
                    sim::setDefaultEngine(sim::Engine::Step);
                else if (e == "batch")
                    sim::setDefaultEngine(sim::Engine::Batch);
                else
                    fatal("unknown engine '%s' (step|batch)",
                          e.c_str());
            } else if (a.rfind("--validate=", 0) == 0) {
                markSeen("validate", seen);
                cfg.validateMode = a.substr(11);
            } else if (a.rfind("--osr=", 0) == 0) {
                markSeen("osr", seen);
                cfg.osr = a.substr(6);
                if (cfg.osr != "on" && cfg.osr != "off" &&
                    cfg.osr != "both")
                    fatal("unknown --osr mode '%s' (on|off|both)",
                          cfg.osr.c_str());
            } else if (a == "-v") {
                setLogLevel(LogLevel::Debug);
            } else if (!parseExtra(a, seen)) {
                fatal("unknown argument %s\n%s", a.c_str(),
                      usage().c_str());
            }
        }
        if (!cfg.tracePath.empty())
            obs::tracer().setEnabled(true);
        return cfg;
    }

    /** The supported-flag list, one flag per line. */
    std::string usage() const
    {
        std::string u = "supported flags:\n"
            "  --trace=<path>    write Chrome trace JSON\n"
            "  --metrics=<path>  write metrics snapshot JSON\n"
            "  --profile=<path>  write merged continuous-profile "
            "JSON\n"
            "  --flamegraph=<path> write folded stacks for "
            "flamegraph.pl\n"
            "  --seed=<n>        root seed for stochastic models\n"
            "  --validate=<mode> install-gate mode for fleet benches "
            "(off|ir|diff|paranoid)\n"
            "  --osr=<mode>      on-stack replacement for fleet "
            "benches (on|off|both)\n"
            "  -v                debug logging";
        for (const Flag &f : flags_) {
            std::string spec = "--" + f.name +
                (f.b ? "" : f.s ? "=<value>" : f.d ? "=<x>" : "=<n>");
            u += "\n  " + spec;
            if (spec.size() < 18)
                u += std::string(18 - spec.size(), ' ');
            else
                u += ' ';
            u += f.help;
        }
        return u;
    }

  private:
    struct Flag
    {
        std::string name;
        std::string help;
        std::string *s;
        uint64_t *u;
        double *d;
        bool *b;
    };

    void markSeen(const std::string &name,
                  std::set<std::string> &seen)
    {
        if (!seen.insert(name).second)
            fatal("flag --%s given more than once\n%s", name.c_str(),
                  usage().c_str());
    }

    bool parseExtra(const std::string &a, std::set<std::string> &seen)
    {
        for (const Flag &f : flags_) {
            if (f.b && a == "--" + f.name) {
                markSeen(f.name, seen);
                *f.b = true;
                return true;
            }
            std::string prefix = "--" + f.name + "=";
            if (!f.b && a.rfind(prefix, 0) == 0) {
                markSeen(f.name, seen);
                std::string v = a.substr(prefix.size());
                if (f.s)
                    *f.s = v;
                else if (f.u)
                    *f.u = std::strtoull(v.c_str(), nullptr, 0);
                else if (f.d)
                    *f.d = std::strtod(v.c_str(), nullptr);
                return true;
            }
        }
        return false;
    }

    std::vector<Flag> flags_;
};

/** Parse the built-in flags only (--trace/--metrics/--seed/-v). */
inline ObsConfig
parseObsArgs(int argc, char **argv)
{
    ArgParser parser;
    return parser.parse(argc, argv);
}

/** Write the requested exports (call at the end of main). */
inline void
exportObs(const ObsConfig &cfg)
{
    if (!cfg.tracePath.empty())
        obs::tracer().writeChromeJson(cfg.tracePath);
    if (!cfg.metricsPath.empty())
        obs::metrics().writeJson(cfg.metricsPath);
}

/** Measurement windows for overhead benches, in simulated ms. */
constexpr double kWarmMs = 600.0;
constexpr double kMeasureMs = 1200.0;

/** Retired branches of a batch app running alone under `setup`. */
template <typename Setup>
uint64_t
measureBranches(const std::string &batch, bool protean, Setup &&setup)
{
    workloads::BatchSpec spec = workloads::batchSpec(batch);
    spec.targetStaticLoads = 0; // padding never executes
    ir::Module module = workloads::buildBatch(spec);
    isa::Image image =
        protean ? pcc::compile(module) : pcc::compilePlain(module);

    sim::Machine machine;
    machine.load(image, 0);
    if (obs::tracer().enabled())
        machine.startObsSampling(20.0);
    setup(machine);
    machine.runFor(machine.msToCycles(kWarmMs));
    uint64_t before = machine.core(0).hpm().branches;
    machine.runFor(machine.msToCycles(kMeasureMs));
    machine.exportObsMetrics();
    return machine.core(0).hpm().branches - before;
}

/** Branches with no special setup. */
inline uint64_t
measureBranchesPlain(const std::string &batch, bool protean)
{
    return measureBranches(batch, protean, [](sim::Machine &) {});
}

/** Format a slowdown ratio. */
inline std::string
fmtRatio(double v)
{
    return TextTable::fmt(v, 3);
}

} // namespace bench
} // namespace protean

#endif // PROTEAN_BENCH_COMMON_H
