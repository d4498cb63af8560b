/**
 * @file
 * Fleet compilation service study (paper Section V-E).
 *
 * Part 1 compares a fleet of N servers compiling locally against the
 * same fleet sharing the content-addressed compilation service at
 * equal QoS proxy (host branches retired): with every server running
 * the same binary, fleet-wide compile cycles collapse by roughly the
 * dedup factor while host progress holds.
 *
 * Part 2 sweeps fleet size x shard count x cache capacity to show
 * where the hit rate and coalescing come from.
 *
 * When the common `--profile=<path>` / `--flamegraph=<path>` flags
 * are given, the shared-service configuration re-runs with the
 * telemetry plane and continuous profiler on: the fleet-merged
 * profile is exported (byte-identical across repeat runs) and the
 * variant scoreboard's winning-mask table is printed.
 *
 * Flags (beyond the common set): --servers=<n>, --ms=<x> (simulated
 * run length), --mean-ms=<x> (per-server request interarrival mean)
 * and --quick (tiny CI configuration). The common `--validate=<mode>`
 * flag selects the install-gate tier every fleet run pays (default:
 * the FleetConfig default, tier-1 structural); a gate summary line
 * follows the part-1 table when the gate is on.
 */

#include "common.h"
#include "profile_report.h"

#include "fleet/fleet.h"

using namespace protean;

namespace {

/** Install-gate mode every fleet run in this bench uses (set once
 *  from --validate; the FleetConfig default otherwise). */
validate::Mode g_validate = fleet::FleetConfig{}.validate.mode;

/** On-stack replacement for every fleet run in this bench (set once
 *  from the shared --osr flag; off by default). */
bool g_osr = false;

fleet::FleetStats
runFleet(uint32_t servers, bool remote, double ms, double mean_ms,
         uint64_t seed, const fleet::ServiceConfig &svc,
         bool export_obs)
{
    fleet::FleetConfig cfg;
    cfg.numServers = servers;
    cfg.remoteBackend = remote;
    cfg.meanRequestMs = mean_ms;
    cfg.seed = seed;
    cfg.service = svc;
    cfg.validate.mode = g_validate;
    cfg.osr = g_osr;
    fleet::FleetSim sim(cfg);
    sim.run(ms);
    if (export_obs)
        sim.exportObsMetrics();
    return sim.stats();
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t servers = 8;
    double ms = 400.0;
    double mean_ms = 4.0;
    bool quick = false;
    bench::ArgParser parser;
    parser.addFlag("servers", &servers, "fleet size (default 8)");
    parser.addFlag("ms", &ms, "simulated run length per fleet");
    parser.addFlag("mean-ms", &mean_ms,
                   "mean request interarrival per server");
    parser.addSwitch("quick", &quick, "tiny configuration for CI");
    bench::ObsConfig obs_cfg = parser.parse(argc, argv);
    if (quick) {
        servers = 4;
        ms = 120.0;
    }
    if (!obs_cfg.validateMode.empty())
        g_validate = validate::parseMode(obs_cfg.validateMode);
    g_osr = obs_cfg.osr == "on";

    fleet::ServiceConfig svc;

    {
        TextTable t("Fleet compilation service: local vs shared "
                    "backend");
        t.setHeader({"Backend", "Compile cycles", "Service compiles",
                     "Hit rate", "Host branches", "Dedup"});
        fleet::FleetStats local = runFleet(
            static_cast<uint32_t>(servers), false, ms, mean_ms,
            obs_cfg.seed, svc, false);
        // The remote run is exported last so --metrics/--trace
        // describe the shared-service configuration.
        fleet::FleetStats remote = runFleet(
            static_cast<uint32_t>(servers), true, ms, mean_ms,
            obs_cfg.seed, svc, true);
        t.addRow({"local",
                  strformat("%llu", static_cast<unsigned long long>(
                                        local.totalCompileCycles())),
                  "-", "-",
                  strformat("%llu", static_cast<unsigned long long>(
                                        local.hostBranches)),
                  bench::fmtRatio(local.dedupFactor())});
        t.addRow({"fleet",
                  strformat("%llu", static_cast<unsigned long long>(
                                        remote.totalCompileCycles())),
                  strformat("%llu", static_cast<unsigned long long>(
                                        remote.service.compiles)),
                  bench::fmtRatio(
                      remote.service.requests == 0 ? 0.0 :
                      static_cast<double>(remote.service.hits +
                                          remote.service.coalesced) /
                      static_cast<double>(remote.service.requests)),
                  strformat("%llu", static_cast<unsigned long long>(
                                        remote.hostBranches)),
                  bench::fmtRatio(remote.dedupFactor())});
        t.print();
        double ratio = remote.totalCompileCycles() == 0 ? 0.0 :
            static_cast<double>(local.totalCompileCycles()) /
            static_cast<double>(remote.totalCompileCycles());
        std::printf("\nfleet-wide compile cycles: %sx fewer with the "
                    "shared service (%llu requests, %llu coalesced)\n",
                    bench::fmtRatio(ratio).c_str(),
                    static_cast<unsigned long long>(
                        remote.service.requests),
                    static_cast<unsigned long long>(
                        remote.service.coalesced));
        if (g_validate != validate::Mode::Off) {
            double ovh = remote.service.compileCycles == 0 ? 0.0 :
                static_cast<double>(remote.service.validateCycles) /
                static_cast<double>(remote.service.compileCycles);
            std::printf("install gate (%s): %llu validated, %llu "
                        "rejected, %llu escalated, overhead %.2f%% "
                        "of compile cycles\n",
                        validate::modeName(g_validate),
                        static_cast<unsigned long long>(
                            remote.service.validatePasses),
                        static_cast<unsigned long long>(
                            remote.service.validateFails),
                        static_cast<unsigned long long>(
                            remote.service.validateEscalations),
                        ovh * 100.0);
        }
    }

    if (!quick) {
        std::printf("\n");
        TextTable t("Sweep: fleet size x shards x cache capacity");
        t.setHeader({"Servers", "Shards", "Capacity", "Hit rate",
                     "Coalesced", "Evictions", "Dedup"});
        for (uint32_t n : {4u, 8u, 16u}) {
            for (uint32_t shards : {1u, 4u}) {
                for (uint32_t cap : {4u, 64u}) {
                    fleet::ServiceConfig sc;
                    sc.numShards = shards;
                    sc.shardCapacity = cap;
                    fleet::FleetStats st = runFleet(
                        n, true, ms / 2.0, mean_ms, obs_cfg.seed,
                        sc, false);
                    t.addRow(
                        {strformat("%u", n), strformat("%u", shards),
                         strformat("%u", cap),
                         bench::fmtRatio(
                             st.service.requests == 0 ? 0.0 :
                             static_cast<double>(st.service.hits +
                                                 st.service.coalesced) /
                             static_cast<double>(st.service.requests)),
                         strformat("%llu",
                                   static_cast<unsigned long long>(
                                       st.service.coalesced)),
                         strformat("%llu",
                                   static_cast<unsigned long long>(
                                       st.service.evictions)),
                         bench::fmtRatio(st.dedupFactor())});
                }
            }
        }
        t.print();
        std::printf("\npaper shape: one compile serves the whole "
                    "fleet; tiny caches evict and recompile\n");
    }

    // Continuous-profiling export: the shared-service configuration
    // again, telemetry plane + profiler on.
    if (!obs_cfg.profilePath.empty() ||
        !obs_cfg.flamegraphPath.empty()) {
        fleet::FleetConfig cfg;
        cfg.numServers = static_cast<uint32_t>(servers);
        cfg.remoteBackend = true;
        cfg.meanRequestMs = mean_ms;
        cfg.seed = obs_cfg.seed;
        cfg.service = svc;
        cfg.validate.mode = g_validate;
        cfg.osr = g_osr;
        cfg.telemetry.enabled = true;
        cfg.telemetry.profiling = true;
        fleet::FleetSim sim(cfg);
        sim.run(ms);
        sim.flushTelemetry();
        bench::printWinningMasks(*sim.telemetry());
        bench::exportFleetProfile(*sim.telemetry(), obs_cfg);
    }

    bench::exportObs(obs_cfg);
    return 0;
}
