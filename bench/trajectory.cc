/**
 * @file
 * Perf-trajectory regression gate.
 *
 * Reads a schema-1 benchmark trajectory (the append-format
 * BENCH_engine.json that bench/perf_engine and the fleet benches
 * write), prints the history of the gated metric, and compares the
 * newest run against the best prior run: the gate fails when
 *
 *     newest < best_prior * (1 - tolerance)
 *
 * Gating against the *best* prior run rather than the immediately
 * preceding one means a slow regression across many commits cannot
 * ratchet the baseline down with it — the trajectory remembers the
 * high-water mark. Metrics are host-speed-independent ratios
 * (engine speedups, overhead fractions), so runs from different
 * machines are comparable; the noise tolerance absorbs what ratio
 * metrics cannot.
 *
 * Flags: --file=<path> (default BENCH_engine.json), --metric=<name>
 * (default alu_speedup_1proc), --tolerance=<x> (default 0.35, the
 * allowed fractional drop below the best prior run). A trajectory
 * with a single run passes trivially — there is no prior to regress
 * against. Exits nonzero on a regression, a missing or unparsable
 * file, or a newest run lacking the gated metric.
 */

#include <cstdio>

#include "support/json.h"
#include "support/logging.h"
#include "support/table.h"

using namespace protean;

namespace {

struct Run
{
    uint64_t index = 0;
    std::string git;
    std::string label;
    double value = 0.0;
    bool hasMetric = false;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string file = "BENCH_engine.json";
    std::string metric = "alu_speedup_1proc";
    double tolerance = 0.35;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--file=", 0) == 0)
            file = a.substr(7);
        else if (a.rfind("--metric=", 0) == 0)
            metric = a.substr(9);
        else if (a.rfind("--tolerance=", 0) == 0)
            tolerance = std::strtod(a.substr(12).c_str(), nullptr);
        else if (a == "-v")
            setLogLevel(LogLevel::Debug);
        else
            fatal("unknown argument %s\nsupported flags:\n"
                  "  --file=<path>      trajectory file\n"
                  "  --metric=<name>    metric to gate on\n"
                  "  --tolerance=<x>    allowed fractional drop\n"
                  "  -v                 debug logging",
                  a.c_str());
    }
    if (tolerance < 0.0 || tolerance >= 1.0)
        fatal("trajectory: --tolerance must be in [0, 1)");

    std::FILE *f = std::fopen(file.c_str(), "rb");
    if (!f) {
        std::fprintf(stderr, "trajectory: cannot read %s\n",
                     file.c_str());
        return 1;
    }
    std::string body;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        body.append(buf, n);
    std::fclose(f);

    std::string err;
    JsonValue doc = JsonValue::parse(body, &err);
    if (!err.empty()) {
        std::fprintf(stderr, "trajectory: %s: %s\n", file.c_str(),
                     err.c_str());
        return 1;
    }
    if (doc.numberOr("schema", 0) != 1) {
        std::fprintf(stderr,
                     "trajectory: %s is not a schema-1 trajectory "
                     "(run the bench once to convert it)\n",
                     file.c_str());
        return 1;
    }
    const JsonValue *runsNode = doc.find("runs");
    if (!runsNode || !runsNode->isArray() ||
        runsNode->items().empty()) {
        std::fprintf(stderr, "trajectory: %s has no runs\n",
                     file.c_str());
        return 1;
    }

    std::vector<Run> runs;
    for (const JsonValue &rv : runsNode->items()) {
        Run r;
        r.index = static_cast<uint64_t>(rv.numberOr("run", 0));
        r.git = rv.stringOr("git", "?");
        r.label = rv.stringOr("label", "");
        const JsonValue *m = rv.find("metrics");
        const JsonValue *v = m ? m->find(metric) : nullptr;
        if (v && v->isNumber()) {
            r.hasMetric = true;
            r.value = v->asNumber();
        }
        runs.push_back(std::move(r));
    }

    // Best prior = max over all runs except the newest.
    const Run &newest = runs.back();
    const Run *best = nullptr;
    for (size_t i = 0; i + 1 < runs.size(); ++i) {
        if (!runs[i].hasMetric)
            continue;
        if (!best || runs[i].value > best->value)
            best = &runs[i];
    }

    TextTable t(strformat("%s: %s trajectory (%zu runs)",
                          file.c_str(), metric.c_str(), runs.size()));
    t.setHeader({"Run", "Git", "Label", metric, "Note"});
    for (const Run &r : runs) {
        std::string note;
        if (best && r.index == best->index)
            note = "best prior";
        if (&r == &newest)
            note = note.empty() ? "newest" : note + ", newest";
        t.addRow({strformat("%llu",
                            static_cast<unsigned long long>(r.index)),
                  r.git, r.label,
                  r.hasMetric ? strformat("%.3f", r.value) : "-",
                  note});
    }
    t.print();

    if (!newest.hasMetric) {
        std::fprintf(stderr,
                     "FAIL: newest run %llu lacks metric %s\n",
                     static_cast<unsigned long long>(newest.index),
                     metric.c_str());
        return 1;
    }
    if (!best) {
        std::printf("single run with %s: nothing prior to regress "
                    "against, pass\n",
                    metric.c_str());
        return 0;
    }

    double floor = best->value * (1.0 - tolerance);
    std::printf("newest %.3f vs best prior %.3f (run %llu, %s); "
                "floor at tolerance %.2f = %.3f\n",
                newest.value, best->value,
                static_cast<unsigned long long>(best->index),
                best->git.c_str(), tolerance, floor);
    if (newest.value < floor) {
        std::fprintf(stderr,
                     "FAIL: %s regressed: %.3f < %.3f "
                     "(best prior %.3f - %.0f%%)\n",
                     metric.c_str(), newest.value, floor,
                     best->value, tolerance * 100.0);
        return 1;
    }
    std::printf("PASS: %s within tolerance\n", metric.c_str());
    return 0;
}
