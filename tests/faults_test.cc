/**
 * @file
 * Tests for the fault-injection layer and the degradation ladder:
 * seeded FaultPlan reproducibility, circuit-breaker state machine,
 * replication surviving a single-shard crash with zero
 * unique-variant loss, checksum rejection of corrupted payloads,
 * client timeout/retry/local-fallback behavior, and byte-identical
 * faulted runs across repeats.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace protean {
namespace fleet {
namespace {

class FaultsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::metrics().reset();
        obs::tracer().clear();
    }

    void
    TearDown() override
    {
        obs::tracer().clear();
        obs::metrics().reset();
    }
};

runtime::CompileJob
job(uint64_t key, uint64_t cost = 1000, uint64_t bytes = 256)
{
    runtime::CompileJob j;
    j.contentKey = key;
    j.func = 0;
    j.costCycles = cost;
    j.codeBytes = bytes;
    // Not `= "f"`: assigning the literal trips a GCC 12 -Wrestrict
    // false positive in optimized builds.
    j.name = std::string("f");
    return j;
}

// ---------------------------------------------------------------- //
//                            FaultPlan                             //
// ---------------------------------------------------------------- //

TEST_F(FaultsTest, GeneratedSchedulesAreSeedReproducible)
{
    faults::FaultConfig cfg;
    cfg.seed = 0x1234;
    cfg.shardCrashMeanCycles = 50000.0;
    cfg.shardRestartCycles = 10000;

    faults::FaultPlan a(cfg), b(cfg);
    for (uint32_t shard = 0; shard < 4; ++shard) {
        for (uint64_t c = 0; c <= 500000; c += 777)
            ASSERT_EQ(a.shardDownAt(shard, c),
                      b.shardDownAt(shard, c))
                << "shard " << shard << " cycle " << c;
    }

    // A different seed places crashes elsewhere.
    faults::FaultConfig other = cfg;
    other.seed = 0x5678;
    faults::FaultPlan c(other);
    bool differs = false;
    for (uint64_t cyc = 0; cyc <= 500000 && !differs; cyc += 777)
        differs = a.shardDownAt(0, cyc) != c.shardDownAt(0, cyc);
    EXPECT_TRUE(differs);
}

TEST_F(FaultsTest, PureDecisionsAreOrderIndependent)
{
    faults::FaultConfig cfg;
    cfg.requestDropProb = 0.3;
    cfg.responseCorruptProb = 0.3;
    faults::FaultPlan a(cfg), b(cfg);

    // Query one plan forward and the other backward: pure hashes
    // cannot depend on evaluation order.
    std::vector<bool> fwd, bwd(1000);
    for (uint64_t i = 0; i < 1000; ++i)
        fwd.push_back(a.dropRequest(i));
    for (uint64_t i = 1000; i-- > 0;)
        bwd[i] = b.dropRequest(i);
    EXPECT_EQ(fwd, bwd);

    uint64_t drops = 0;
    for (uint64_t i = 0; i < 1000; ++i)
        drops += fwd[i] ? 1 : 0;
    // ~300 expected; loose bounds catch a broken hash (all-true or
    // all-false).
    EXPECT_GT(drops, 150u);
    EXPECT_LT(drops, 450u);
}

TEST_F(FaultsTest, ScriptedOutageWindowSemantics)
{
    faults::FaultPlan plan;
    EXPECT_FALSE(plan.enabled());
    plan.addShardOutage(0, 100, 200);
    EXPECT_TRUE(plan.enabled());

    EXPECT_FALSE(plan.shardDownAt(0, 99));
    EXPECT_TRUE(plan.shardDownAt(0, 100));  // crash cycle inclusive
    EXPECT_TRUE(plan.shardDownAt(0, 199));
    EXPECT_FALSE(plan.shardDownAt(0, 200)); // restart cycle exclusive
    EXPECT_FALSE(plan.shardDownAt(1, 150)); // other shards unaffected

    EXPECT_EQ(plan.peekOutage(0, 50), nullptr);
    const faults::ShardOutage *o = plan.peekOutage(0, 150);
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->at, 100u);
    EXPECT_EQ(o->until, 200u);
    plan.consumeOutage(0);
    EXPECT_EQ(plan.peekOutage(0, 1000000), nullptr);
}

TEST_F(FaultsTest, ScriptedOutageValidation)
{
    faults::FaultPlan plan;
    EXPECT_DEATH(plan.addShardOutage(0, 200, 200), "end after");
    plan.addShardOutage(0, 100, 200);
    EXPECT_DEATH(plan.addShardOutage(0, 150, 300), "in order");
}

// ---------------------------------------------------------------- //
//                          CircuitBreaker                          //
// ---------------------------------------------------------------- //

CircuitBreaker::Config
breakerCfg()
{
    CircuitBreaker::Config cfg;
    cfg.failureThreshold = 3;
    cfg.openCycles = 1000;
    cfg.closeThreshold = 2;
    return cfg;
}

TEST_F(FaultsTest, BreakerOpensAfterConsecutiveFailures)
{
    CircuitBreaker br(breakerCfg());
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
    br.onFailure(10);
    br.onFailure(20);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
    EXPECT_TRUE(br.allowRequest(30));
    br.onFailure(30);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(br.opens(), 1u);
    EXPECT_FALSE(br.allowRequest(500));

    // A success resets the consecutive count while closed.
    CircuitBreaker br2(breakerCfg());
    br2.onFailure(10);
    br2.onFailure(20);
    br2.onSuccess(25);
    br2.onFailure(30);
    br2.onFailure(40);
    EXPECT_EQ(br2.state(), CircuitBreaker::State::Closed);
}

TEST_F(FaultsTest, BreakerHalfOpenClosesAfterProbeSuccesses)
{
    CircuitBreaker br(breakerCfg());
    for (int i = 0; i < 3; ++i)
        br.onFailure(100);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Open);

    // Open window elapsed: the next request is a probe.
    EXPECT_TRUE(br.allowRequest(1100));
    EXPECT_EQ(br.state(), CircuitBreaker::State::HalfOpen);
    br.onSuccess(1200);
    EXPECT_EQ(br.state(), CircuitBreaker::State::HalfOpen);
    br.onSuccess(1300);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
}

TEST_F(FaultsTest, BreakerReopensOnProbeFailure)
{
    CircuitBreaker br(breakerCfg());
    for (int i = 0; i < 3; ++i)
        br.onFailure(100);
    EXPECT_TRUE(br.allowRequest(1100));
    EXPECT_EQ(br.state(), CircuitBreaker::State::HalfOpen);
    br.onFailure(1200);
    EXPECT_EQ(br.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(br.opens(), 2u);
    EXPECT_FALSE(br.allowRequest(1300));
    EXPECT_TRUE(br.allowRequest(2300));
}

// ---------------------------------------------------------------- //
//                    Service under fault plans                     //
// ---------------------------------------------------------------- //

TEST_F(FaultsTest, ReplicationSurvivesSingleShardCrash)
{
    ServiceConfig cfg;
    cfg.numShards = 4;
    cfg.replication = 2;
    CompileService svc(cfg);
    faults::FaultPlan plan;
    svc.setFaultPlan(&plan);

    const uint64_t key = 7;
    uint32_t primary = svc.shardOf(key);
    std::vector<uint32_t> set = svc.replicaSet(key);
    ASSERT_EQ(set.size(), 2u);
    ASSERT_EQ(set[0], primary);

    runtime::CompileOutcome first;
    svc.submit(0, job(key), 100,
               [&](const runtime::CompileOutcome &o) { first = o; });
    svc.advance(60000);
    ASSERT_FALSE(first.failed);
    // The compiled variant is resident on the primary AND its
    // replica.
    EXPECT_TRUE(svc.shardHasKey(primary, key));
    EXPECT_TRUE(svc.shardHasKey(set[1], key));
    EXPECT_EQ(svc.stats().replicaInstalls, 1u);

    // Crash the primary; a request arriving mid-outage reroutes to
    // the replica and hits — the crash lost no unique work.
    plan.addShardOutage(primary, 70000, 90000);
    runtime::CompileOutcome second;
    svc.submit(1, job(key), 75000,
               [&](const runtime::CompileOutcome &o) { second = o; });
    svc.advance(120000);
    EXPECT_FALSE(second.failed);
    EXPECT_TRUE(second.remoteHit);
    EXPECT_EQ(svc.stats().hits, 1u);
    EXPECT_EQ(svc.stats().compiles, 1u);
    EXPECT_EQ(svc.stats().replicaRoutes, 1u);
    EXPECT_EQ(svc.stats().crashes, 1u);
    EXPECT_EQ(svc.stats().lostEntries, 1u);
    EXPECT_FALSE(svc.shardHasKey(primary, key));
    EXPECT_TRUE(svc.shardHasKey(set[1], key));
}

TEST_F(FaultsTest, CrashMidCompileFailsStrandedWaiters)
{
    ServiceConfig cfg;
    cfg.numShards = 1;
    CompileService svc(cfg);
    faults::FaultPlan plan;
    svc.setFaultPlan(&plan);
    plan.addShardOutage(0, 5000, 20000);

    // The miss's compile would finish long after the crash: the
    // waiter gets an explicit failure at the crash cycle.
    runtime::CompileOutcome out;
    svc.submit(0, job(1, /*cost=*/100000), 100,
               [&](const runtime::CompileOutcome &o) { out = o; });
    svc.advance(50000);
    EXPECT_TRUE(out.failed);
    EXPECT_EQ(out.readyCycle,
              5000 + cfg.net.responseLatencyCycles);
    EXPECT_EQ(svc.stats().failed, 1u);
    EXPECT_EQ(svc.stats().crashes, 1u);
    EXPECT_FALSE(svc.shardUp(0, 10000));
    EXPECT_TRUE(svc.shardUp(0, 20000));

    // After the restart the shard compiles again.
    runtime::CompileOutcome retry;
    svc.submit(0, job(1, 1000), 25000,
               [&](const runtime::CompileOutcome &o) { retry = o; });
    svc.advance(80000);
    EXPECT_FALSE(retry.failed);
    EXPECT_FALSE(retry.remoteHit);
}

TEST_F(FaultsTest, WholeReplicaSetDownFailsFast)
{
    ServiceConfig cfg;
    cfg.numShards = 1;
    CompileService svc(cfg);
    faults::FaultPlan plan;
    svc.setFaultPlan(&plan);
    plan.addShardOutage(0, 100, 50000);

    runtime::CompileOutcome out;
    svc.submit(0, job(1), 1000,
               [&](const runtime::CompileOutcome &o) { out = o; });
    svc.advance(10000);
    EXPECT_TRUE(out.failed);
    EXPECT_EQ(out.readyCycle, 1000 + cfg.net.responseLatencyCycles);
    EXPECT_EQ(svc.stats().failed, 1u);
    // The failure is the health-based router refusing the request;
    // the (empty) shard's crash lost nothing.
    EXPECT_EQ(svc.stats().crashes, 1u);
    EXPECT_EQ(svc.stats().lostEntries, 0u);
}

TEST_F(FaultsTest, CorruptCachedEntryRejectedAndRecompiled)
{
    ServiceConfig cfg;
    cfg.numShards = 1;
    CompileService svc(cfg);
    faults::FaultConfig fc;
    fc.cacheCorruptProb = 1.0; // every install corrupts at rest
    faults::FaultPlan plan(fc);
    svc.setFaultPlan(&plan);

    runtime::CompileOutcome first, second;
    svc.submit(0, job(9), 100,
               [&](const runtime::CompileOutcome &o) { first = o; });
    svc.advance(50000);
    ASSERT_FALSE(first.failed);
    EXPECT_FALSE(svc.shardHasKey(0, 9)); // resident but corrupt

    // The next request's checksum probe rejects the entry and
    // recompiles instead of shipping garbage.
    svc.submit(1, job(9), 60000,
               [&](const runtime::CompileOutcome &o) { second = o; });
    svc.advance(120000);
    EXPECT_FALSE(second.failed);
    EXPECT_FALSE(second.remoteHit);
    EXPECT_EQ(svc.stats().corruptRejects, 1u);
    EXPECT_EQ(svc.stats().hits, 0u);
    // The recompile forced by the corrupt entry is accounted
    // separately from true misses (the key *was* cached).
    EXPECT_EQ(svc.stats().misses, 1u);
    EXPECT_EQ(svc.stats().corruptRecompiles, 1u);
    EXPECT_EQ(svc.stats().compiles, 2u);
}

TEST_F(FaultsTest, DroppedRequestIsNeverAnswered)
{
    ServiceConfig cfg;
    cfg.numShards = 1;
    CompileService svc(cfg);
    faults::FaultConfig fc;
    fc.requestDropProb = 1.0;
    faults::FaultPlan plan(fc);
    svc.setFaultPlan(&plan);

    bool answered = false;
    svc.submit(0, job(3), 100,
               [&](const runtime::CompileOutcome &) {
                   answered = true;
               });
    svc.advance(1000000);
    EXPECT_FALSE(answered);
    EXPECT_EQ(svc.stats().requests, 1u);
    EXPECT_EQ(svc.stats().dropped, 1u);
    EXPECT_EQ(svc.stats().batches, 0u);
}

TEST_F(FaultsTest, CorruptResponseIsFlagged)
{
    ServiceConfig cfg;
    cfg.numShards = 1;
    CompileService svc(cfg);
    faults::FaultConfig fc;
    fc.responseCorruptProb = 1.0;
    faults::FaultPlan plan(fc);
    svc.setFaultPlan(&plan);

    runtime::CompileOutcome out;
    svc.submit(0, job(5), 100,
               [&](const runtime::CompileOutcome &o) { out = o; });
    svc.advance(50000);
    EXPECT_FALSE(out.failed);
    EXPECT_TRUE(out.corrupted);
    EXPECT_EQ(svc.stats().corruptResponses, 1u);
}

// ---------------------------------------------------------------- //
//                  Client-side degradation ladder                  //
// ---------------------------------------------------------------- //

RetryPolicy
testLadder()
{
    RetryPolicy p;
    p.enabled = true;
    p.maxAttempts = 2;
    p.attemptTimeoutCycles = 2000;
    p.backoffBaseCycles = 100;
    p.backoffCapCycles = 400;
    p.breaker.failureThreshold = 100; // keep the breaker out of it
    return p;
}

TEST_F(FaultsTest, ClientTimesOutRetriesThenFallsBackLocal)
{
    ServiceConfig cfg;
    cfg.numShards = 1;
    CompileService svc(cfg);
    faults::FaultConfig fc;
    fc.requestDropProb = 1.0; // the service never answers anyone
    faults::FaultPlan plan(fc);
    svc.setFaultPlan(&plan);

    Cluster cluster(svc);
    sim::Machine m;
    cluster.addMachine(m);
    RemoteBackend backend(svc, m, 0);
    backend.setRetryPolicy(testLadder());

    runtime::CompileOutcome out;
    bool resolved = false;
    backend.compile(job(1, /*cost=*/500),
                    [&](const runtime::CompileOutcome &o) {
                        out = o;
                        resolved = true;
                    });
    cluster.runFor(50000);

    // Both remote attempts timed out; the local compiler finished
    // the job — the host never stalls.
    EXPECT_TRUE(resolved);
    EXPECT_FALSE(out.failed);
    EXPECT_EQ(out.chargedCycles, 500u);
    const ClientStats &cs = backend.clientStats();
    EXPECT_EQ(cs.remoteRequests, 2u);
    EXPECT_EQ(cs.timeouts, 2u);
    EXPECT_EQ(cs.retries, 1u);
    EXPECT_EQ(cs.localFallbacks, 1u);
    EXPECT_EQ(backend.pendingCount(), 0u);
    EXPECT_GT(cs.maxResolveCycles, 0u);
}

TEST_F(FaultsTest, ClientBreakerOpensAndShortCircuits)
{
    ServiceConfig cfg;
    cfg.numShards = 1;
    CompileService svc(cfg);
    faults::FaultConfig fc;
    fc.requestDropProb = 1.0;
    faults::FaultPlan plan(fc);
    svc.setFaultPlan(&plan);

    Cluster cluster(svc);
    sim::Machine m;
    cluster.addMachine(m);
    RemoteBackend backend(svc, m, 0);
    RetryPolicy p = testLadder();
    p.breaker.failureThreshold = 3;
    p.breaker.openCycles = 200000; // stays open for the whole test
    backend.setRetryPolicy(p);

    // Space requests out so each one's ladder finishes before the
    // next starts; the breaker trips during the second request and
    // later ones go straight to the local fallback.
    uint64_t resolved = 0;
    for (int i = 0; i < 4; ++i) {
        m.schedule(1 + 10000 * static_cast<uint64_t>(i), [&, i] {
            backend.compile(job(100 + i, 500),
                            [&](const runtime::CompileOutcome &) {
                                ++resolved;
                            });
        });
    }
    cluster.runFor(100000);

    EXPECT_EQ(resolved, 4u);
    EXPECT_EQ(backend.pendingCount(), 0u);
    EXPECT_EQ(backend.breaker().state(),
              CircuitBreaker::State::Open);
    EXPECT_GE(backend.breaker().opens(), 1u);
    const ClientStats &cs = backend.clientStats();
    // Request 1 exhausts both attempts (two breaker failures);
    // request 2's single timeout trips the breaker, so requests 3
    // and 4 never touch the service.
    EXPECT_EQ(cs.breakerShortCircuits, 2u);
    EXPECT_EQ(cs.localFallbacks, 4u);
}

// ---------------------------------------------------------------- //
//                       Faulted fleet end-to-end                   //
// ---------------------------------------------------------------- //

faults::FaultConfig
moderateFaults()
{
    faults::FaultConfig f;
    f.shardCrashMeanCycles = 60000.0;
    f.shardRestartCycles = 15000;
    f.requestDropProb = 0.05;
    f.requestDelayProb = 0.05;
    f.responseCorruptProb = 0.02;
    f.cacheCorruptProb = 0.02;
    f.serverPauseProb = 0.02;
    return f;
}

RetryPolicy
fleetLadder()
{
    RetryPolicy p;
    p.enabled = true;
    p.maxAttempts = 3;
    p.attemptTimeoutCycles = 30000;
    p.backoffBaseCycles = 1000;
    p.backoffCapCycles = 8000;
    p.hedgeAfterCycles = 15000;
    return p;
}

TEST_F(FaultsTest, FaultedFleetResolvesEveryRequest)
{
    FleetConfig cfg;
    cfg.numServers = 3;
    cfg.meanRequestMs = 2.0;
    cfg.faults = moderateFaults();
    cfg.retry = fleetLadder();
    cfg.service.replication = 2;
    FleetSim sim(cfg);
    sim.run(60.0);

    FleetStats st = sim.stats();
    // Faults actually fired...
    EXPECT_GT(st.service.crashes, 0u);
    EXPECT_GT(st.service.dropped, 0u);
    // ...the ladder absorbed them...
    EXPECT_GT(st.client.timeouts + st.client.retries +
                  st.client.localFallbacks,
              0u);
    // ...and no request stalled past its ladder budget.
    EXPECT_EQ(sim.stalledRequests(), 0u);
    EXPECT_EQ(st.stalledRequests, 0u);
}

TEST_F(FaultsTest, FaultedRepeatRunsAreByteIdentical)
{
    auto runOnce = [](const std::string &mpath) {
        obs::metrics().reset();
        FleetConfig cfg;
        cfg.numServers = 3;
        cfg.meanRequestMs = 2.0;
        cfg.faults = moderateFaults();
        cfg.retry = fleetLadder();
        cfg.service.replication = 2;
        FleetSim sim(cfg);
        sim.run(40.0);
        sim.exportObsMetrics();
        obs::metrics().writeJson(mpath);
    };
    std::string m1 = testing::TempDir() + "faults_m1.json";
    std::string m2 = testing::TempDir() + "faults_m2.json";
    runOnce(m1);
    runOnce(m2);

    auto slurp = [](const std::string &p) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    std::string first = slurp(m1);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, slurp(m2)); // repeatable
    EXPECT_NE(first.find("fleet.service.crashes"),
              std::string::npos);
    std::remove(m1.c_str());
    std::remove(m2.c_str());
}

} // namespace
} // namespace fleet
} // namespace protean
