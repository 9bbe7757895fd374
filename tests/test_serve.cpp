/**
 * @file
 * Tests for the online serving simulator (src/serve/): trace
 * generation, fault-plan parsing and materialization, the robust
 * dispatch policy (retries, circuit breaker, shedding, degradation),
 * and the chaos conservation invariants — every request reaches exactly
 * one terminal state and no request is served by a dead device.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "serve/dispatcher.hpp"
#include "serve/fault.hpp"
#include "serve/simulator.hpp"
#include "serve/trace.hpp"
#include "serve_test_util.hpp"

namespace dota {
namespace {

using test::smallFleet;
using test::smallTrace;

// ---------------------------------------------------------------- trace

TEST(ServeTrace, DeterministicAndSorted)
{
    const TraceConfig tc = smallTrace(100);
    const RequestTrace a = generateTrace(tc);
    const RequestTrace b = generateTrace(tc);
    ASSERT_EQ(a.requests.size(), 100u);
    for (size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].arrival_ms, b.requests[i].arrival_ms);
        EXPECT_EQ(a.requests[i].seq_len, b.requests[i].seq_len);
        if (i > 0) {
            EXPECT_GE(a.requests[i].arrival_ms,
                      a.requests[i - 1].arrival_ms);
        }
        EXPECT_GE(a.requests[i].seq_len, tc.len_min);
        EXPECT_LE(a.requests[i].seq_len, tc.len_max);
        EXPECT_EQ(a.requests[i].seq_len % tc.len_round, 0u);
        EXPECT_EQ(a.requests[i].id, i);
    }
    TraceConfig other = tc;
    other.seed = 12;
    const RequestTrace c = generateTrace(other);
    EXPECT_NE(a.requests[0].arrival_ms, c.requests[0].arrival_ms);
}

TEST(ServeTrace, MeanRateRoughlyMatches)
{
    TraceConfig tc = smallTrace(2000, 250.0);
    const RequestTrace t = generateTrace(tc);
    const double elapsed_s = t.horizonMs() * 1e-3;
    const double rate = static_cast<double>(t.requests.size()) /
                        elapsed_s;
    EXPECT_NEAR(rate, 250.0, 25.0); // ~10% for 2000 samples
}

TEST(ServeTrace, DeadlinesAndProcesses)
{
    TraceConfig tc = smallTrace(50);
    tc.deadline_ms = 75.0;
    for (ArrivalProcess p : {ArrivalProcess::Poisson,
                             ArrivalProcess::Burst,
                             ArrivalProcess::Diurnal}) {
        tc.process = p;
        const RequestTrace t = generateTrace(tc);
        ASSERT_EQ(t.requests.size(), 50u) << arrivalProcessName(p);
        for (const Request &r : t.requests)
            EXPECT_DOUBLE_EQ(r.deadline_ms, r.arrival_ms + 75.0);
    }
    tc.deadline_ms = 0.0;
    const RequestTrace t = generateTrace(tc);
    EXPECT_TRUE(std::isinf(t.requests[0].deadline_ms));
}

TEST(ServeTrace, BurstCompressesInterarrivals)
{
    // The burst process at 8x should pack the same request count into
    // less virtual time than plain Poisson with the same seed.
    TraceConfig poisson = smallTrace(400, 100.0);
    TraceConfig burst = poisson;
    burst.process = ArrivalProcess::Burst;
    burst.burst_multiplier = 8.0;
    EXPECT_LT(generateTrace(burst).horizonMs(),
              generateTrace(poisson).horizonMs());
}

// ---------------------------------------------------------------- fault

TEST(ServeFault, ParsePlanRoundTrip)
{
    const FaultPlan plan = parseFaultPlan(
        "kill:0@120, revive:0@400, slow:2@100-300x4, transient:0.05,"
        "mtbf:5000x250");
    ASSERT_EQ(plan.events.size(), 4u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::Kill);
    EXPECT_EQ(plan.events[0].device, 0u);
    EXPECT_DOUBLE_EQ(plan.events[0].t_ms, 120.0);
    EXPECT_EQ(plan.events[1].kind, FaultKind::Revive);
    EXPECT_EQ(plan.events[2].kind, FaultKind::SlowStart);
    EXPECT_DOUBLE_EQ(plan.events[2].factor, 4.0);
    EXPECT_EQ(plan.events[3].kind, FaultKind::SlowEnd);
    EXPECT_DOUBLE_EQ(plan.events[3].t_ms, 300.0);
    EXPECT_DOUBLE_EQ(plan.transient_prob, 0.05);
    EXPECT_DOUBLE_EQ(plan.mtbf_ms, 5000.0);
    EXPECT_DOUBLE_EQ(plan.repair_ms, 250.0);
    EXPECT_EQ(parseFaultPlan("").events.size(), 0u);
}

TEST(ServeFault, TryParseRejectsMalformedPlans)
{
    // Every malformed spec yields ok=false with a diagnostic that names
    // the offending token — never a crash, never a half-built plan.
    const char *bad[] = {
        "bogus:1@2",            // unknown verb
        "kill",                 // no colon
        "kill:@100",            // empty device
        "kill:x@100",           // non-numeric device
        "kill:0",               // missing @<ms>
        "kill:0@abc",           // junk time
        "kill:0@-5",            // negative time
        "slow:0@100",           // incomplete slow spec
        "slow:0@300-100x2",     // t1 <= t0
        "slow:0@100-300x0.5",   // factor < 1
        "transient:1.5",        // probability > 1
        "transient:nan",        // non-finite
        "mtbf:5000",            // missing x<repair>
    };
    for (const char *spec : bad) {
        const FaultPlanParse res = tryParseFaultPlan(spec);
        EXPECT_FALSE(res.ok) << spec;
        EXPECT_FALSE(res.error.empty()) << spec;
    }
}

TEST(ServeFault, TryParseAcceptsGoodPlans)
{
    const FaultPlanParse res =
        tryParseFaultPlan("kill:1@50,slow:0@10-20x2,transient:0.5");
    EXPECT_TRUE(res.ok);
    EXPECT_TRUE(res.error.empty());
    EXPECT_EQ(res.plan.events.size(), 3u);
    EXPECT_DOUBLE_EQ(res.plan.transient_prob, 0.5);
    // Whitespace and empty tokens are tolerated.
    EXPECT_TRUE(tryParseFaultPlan("  ").ok);
    EXPECT_TRUE(tryParseFaultPlan(",,kill:0@1,,").ok);
    // The grammar help text mentions every verb.
    const std::string g = faultPlanGrammar();
    for (const char *verb :
         {"kill", "revive", "slow", "transient", "mtbf"})
        EXPECT_NE(g.find(verb), std::string::npos) << verb;
}

TEST(ServeFault, ParseFatalOnBadPlan)
{
    EXPECT_EXIT(parseFaultPlan("bogus:1@2"),
                ::testing::ExitedWithCode(1), "unknown fault-plan verb");
}

TEST(ServeFault, InjectorSortsAndValidates)
{
    FaultPlan plan;
    plan.events = {{300.0, 1, FaultKind::Revive, 1.0},
                   {100.0, 1, FaultKind::Kill, 1.0},
                   {100.0, 0, FaultKind::Kill, 1.0}};
    const FaultInjector inj(plan, 2, 1000.0, 5);
    ASSERT_EQ(inj.schedule().size(), 3u);
    EXPECT_EQ(inj.schedule()[0].device, 0u);
    EXPECT_EQ(inj.schedule()[1].device, 1u);
    EXPECT_DOUBLE_EQ(inj.schedule()[2].t_ms, 300.0);
}

TEST(ServeFault, SameInstantSameDeviceTieBreakIsKindOrder)
{
    // Two verbs striking one device at the same millisecond resolve by
    // FaultKind enum order (kill < revive < slow < corrupt < drain),
    // NOT by their order in the plan string — so the two spellings
    // below materialize the identical schedule.
    const FaultPlan fwd = parseFaultPlan("kill:0@500,drain:0@500");
    const FaultPlan rev = parseFaultPlan("drain:0@500,kill:0@500");
    const FaultInjector a(fwd, 1, 1000.0, 5);
    const FaultInjector b(rev, 1, 1000.0, 5);
    ASSERT_EQ(a.schedule().size(), 2u);
    ASSERT_EQ(b.schedule().size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(a.schedule()[i].kind, b.schedule()[i].kind);
        EXPECT_EQ(a.schedule()[i].device, b.schedule()[i].device);
        EXPECT_DOUBLE_EQ(a.schedule()[i].t_ms, b.schedule()[i].t_ms);
    }
    // The harsher fault resolves first: the kill wins, the drain finds
    // the device already dead and is a no-op.
    EXPECT_EQ(a.schedule()[0].kind, FaultKind::Kill);
    EXPECT_EQ(a.schedule()[1].kind, FaultKind::Drain);

    // Same-kind ties (two slow-starts) fall through to the factor.
    FaultPlan slow;
    slow.events = {{100.0, 0, FaultKind::SlowStart, 4.0},
                   {100.0, 0, FaultKind::SlowStart, 2.0}};
    const FaultInjector s(slow, 1, 1000.0, 5);
    ASSERT_EQ(s.schedule().size(), 2u);
    EXPECT_DOUBLE_EQ(s.schedule()[0].factor, 2.0);
    EXPECT_DOUBLE_EQ(s.schedule()[1].factor, 4.0);

    // Corrupt-then-drain at one instant: the poison lands before the
    // evacuation starts, so verify-on-arrival is what must catch it.
    const FaultPlan cd = parseFaultPlan("drain:1@30,corrupt:1@30");
    const FaultInjector c(cd, 2, 1000.0, 5);
    ASSERT_EQ(c.schedule().size(), 2u);
    EXPECT_EQ(c.schedule()[0].kind, FaultKind::Corrupt);
    EXPECT_EQ(c.schedule()[1].kind, FaultKind::Drain);
}

TEST(ServeFault, DrainVerbParsesAndRejectsMalformed)
{
    const FaultPlanParse ok = tryParseFaultPlan("drain:2@750");
    ASSERT_TRUE(ok.ok) << ok.error;
    ASSERT_EQ(ok.plan.events.size(), 1u);
    EXPECT_EQ(ok.plan.events[0].kind, FaultKind::Drain);
    EXPECT_EQ(ok.plan.events[0].device, 2u);
    EXPECT_DOUBLE_EQ(ok.plan.events[0].t_ms, 750.0);
    EXPECT_NE(describeFaultPlan(ok.plan).find("drain:2@750"),
              std::string::npos);
    EXPECT_NE(faultPlanGrammar().find("drain"), std::string::npos);
    for (const char *bad : {"drain:0", "drain:@5", "drain:0@",
                            "drain:0@-5", "drain:x@5"})
        EXPECT_FALSE(tryParseFaultPlan(bad).ok) << bad;
}

TEST(ServeReportTest, PercentileOfEmptySampleIsZero)
{
    // A run with zero recoveries/migrations still asks for its
    // percentiles — the guard returns 0 instead of indexing an empty
    // vector or dividing into NaN.
    const std::vector<double> none;
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(percentileSorted(none, q), 0.0) << q;
    const std::vector<double> one{3.5};
    EXPECT_EQ(percentileSorted(one, 0.0), 3.5);
    EXPECT_EQ(percentileSorted(one, 1.0), 3.5);
}

TEST(ServeFault, RandomMtbfDeterministicPerSeed)
{
    FaultPlan plan;
    plan.mtbf_ms = 200.0;
    plan.repair_ms = 50.0;
    const FaultInjector a(plan, 4, 2000.0, 77);
    const FaultInjector b(plan, 4, 2000.0, 77);
    const FaultInjector c(plan, 4, 2000.0, 78);
    ASSERT_EQ(a.schedule().size(), b.schedule().size());
    EXPECT_GT(a.schedule().size(), 0u);
    for (size_t i = 0; i < a.schedule().size(); ++i) {
        EXPECT_EQ(a.schedule()[i].t_ms, b.schedule()[i].t_ms);
        EXPECT_EQ(a.schedule()[i].device, b.schedule()[i].device);
        EXPECT_EQ(a.schedule()[i].kind, b.schedule()[i].kind);
    }
    bool differs = a.schedule().size() != c.schedule().size();
    for (size_t i = 0; !differs && i < a.schedule().size(); ++i)
        differs = a.schedule()[i].t_ms != c.schedule()[i].t_ms;
    EXPECT_TRUE(differs);
    // Kills alternate with revivals per device, and kills stay inside
    // the horizon.
    for (const FaultEvent &ev : a.schedule())
        if (ev.kind == FaultKind::Kill) {
            EXPECT_LT(ev.t_ms, 2000.0);
        }
}

// ----------------------------------------------------------- dispatcher

TEST(ServeDispatcher, BackoffIsCappedExponential)
{
    ServePolicy policy;
    policy.backoff_ms = 2.0;
    policy.backoff_cap_ms = 10.0;
    RobustDispatcher disp(policy, 1);
    EXPECT_DOUBLE_EQ(disp.backoffMs(1), 2.0);
    EXPECT_DOUBLE_EQ(disp.backoffMs(2), 4.0);
    EXPECT_DOUBLE_EQ(disp.backoffMs(3), 8.0);
    EXPECT_DOUBLE_EQ(disp.backoffMs(4), 10.0);
    EXPECT_DOUBLE_EQ(disp.backoffMs(20), 10.0);
}

TEST(ServeDispatcher, BreakerTripsAfterConsecutiveFailures)
{
    ServePolicy policy;
    policy.breaker_threshold = 3;
    policy.breaker_cooldown_ms = 100.0;
    RobustDispatcher disp(policy, 2);
    EXPECT_FALSE(disp.onFailure(0, 10.0));
    EXPECT_FALSE(disp.onFailure(0, 11.0));
    EXPECT_TRUE(disp.onFailure(0, 12.0)); // third in a row trips
    EXPECT_TRUE(disp.breakerOpen(0, 50.0));
    EXPECT_FALSE(disp.breakerOpen(0, 112.0));
    EXPECT_FALSE(disp.breakerOpen(1, 50.0)); // per-device state
    EXPECT_EQ(disp.breakerTrips(0), 1u);
    // A success resets the streak.
    EXPECT_FALSE(disp.onFailure(1, 10.0));
    EXPECT_FALSE(disp.onFailure(1, 11.0));
    disp.onSuccess(1);
    EXPECT_FALSE(disp.onFailure(1, 12.0));
}

TEST(ServeDispatcher, QueueBoundAndOrdering)
{
    ServePolicy policy;
    policy.queue_limit = 2;
    RobustDispatcher disp(policy, 1);
    QueuedJob a{{0, 5.0, 128,
                 std::numeric_limits<double>::infinity()}, 0};
    QueuedJob b{{1, 3.0, 128,
                 std::numeric_limits<double>::infinity()}, 0};
    QueuedJob c{{2, 9.0, 128,
                 std::numeric_limits<double>::infinity()}, 0};
    EXPECT_TRUE(disp.admit(a, false));
    EXPECT_TRUE(disp.admit(b, false));
    EXPECT_FALSE(disp.admit(c, false));  // over the bound: shed
    EXPECT_TRUE(disp.admit(c, true));    // retries are always admitted
    EXPECT_EQ(disp.queueDepth(), 3u);
    EXPECT_EQ(disp.pop().req.id, 1u);    // earliest arrival first
    EXPECT_EQ(disp.pop().req.id, 0u);
    EXPECT_EQ(disp.pop().req.id, 2u);
}

TEST(ServeDispatcher, DegradeLevelFollowsPressure)
{
    ServePolicy policy;
    policy.degrade_depth_1 = 4.0;
    policy.degrade_depth_2 = 8.0;
    RobustDispatcher disp(policy, 4);
    EXPECT_EQ(disp.degradeLevel(0, 4), 0u);
    EXPECT_EQ(disp.degradeLevel(15, 4), 0u);
    EXPECT_EQ(disp.degradeLevel(16, 4), 1u);
    EXPECT_EQ(disp.degradeLevel(32, 4), 2u);
    EXPECT_EQ(disp.degradeLevel(16, 2), 2u); // capacity loss degrades
    policy.degradation = false;
    RobustDispatcher off(policy, 4);
    EXPECT_EQ(off.degradeLevel(100, 1), 0u);
}

// ------------------------------------------------------------ simulator

TEST(ServeSim, HealthyRunCompletesEverything)
{
    const RequestTrace trace = generateTrace(smallTrace());
    ServingSimulator sim(smallFleet(), benchmark(BenchmarkId::Text));
    const ServeReport r = sim.run(trace);
    EXPECT_EQ(r.requests, trace.requests.size());
    EXPECT_EQ(r.completed, trace.requests.size());
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.shed(), 0u);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_GT(r.p50_ms, 0.0);
    EXPECT_LE(r.p50_ms, r.p95_ms);
    EXPECT_LE(r.p95_ms, r.p99_ms);
    EXPECT_LE(r.p99_ms, r.max_latency_ms);
    EXPECT_GT(r.goodput_seq_s, 0.0);
    EXPECT_GT(r.total_energy_j, 0.0);
    for (const DeviceServeStats &d : r.devices)
        EXPECT_TRUE(d.down_intervals.empty());
    // Every outcome is a completion with a served device and level 0
    // retention bookkeeping.
    for (const RequestOutcome &out : r.outcomes) {
        EXPECT_EQ(out.status, RequestStatus::Completed);
        EXPECT_GE(out.device, 0);
        EXPECT_EQ(out.attempts, 1u);
        EXPECT_GE(out.finish_ms, out.arrival_ms);
    }
}

TEST(ServeSim, ConservationUnderChaos)
{
    // Kill half the fleet mid-trace (one device revives), add
    // stragglers and transient errors: every request must still reach
    // exactly one terminal state.
    TraceConfig tc = smallTrace(150, 600.0);
    tc.deadline_ms = 120.0;
    const RequestTrace trace = generateTrace(tc);
    ServeConfig sc = smallFleet(4);
    sc.policy.timeout_ms = 50.0;
    sc.policy.max_retries = 2;
    sc.policy.queue_limit = 64;
    ServingSimulator sim(sc, benchmark(BenchmarkId::Text));
    const FaultPlan plan = parseFaultPlan(
        "kill:0@40,kill:1@60,revive:0@200,slow:2@30-150x5,"
        "transient:0.1");
    const ServeReport r = sim.run(trace, plan, 123);
    EXPECT_EQ(r.requests, trace.requests.size());
    EXPECT_EQ(r.completed + r.shed() + r.failed, r.requests);
    EXPECT_GT(r.failovers + r.retries, 0u);
    // Outcome statuses agree with the counters.
    size_t completed = 0, shed = 0, failed = 0;
    for (const RequestOutcome &out : r.outcomes) {
        switch (out.status) {
          case RequestStatus::Completed:
            ++completed;
            break;
          case RequestStatus::Failed:
            ++failed;
            break;
          default:
            ++shed;
        }
    }
    EXPECT_EQ(completed, r.completed);
    EXPECT_EQ(shed, r.shed());
    EXPECT_EQ(failed, r.failed);
}

TEST(ServeSim, NoServiceDuringDeadIntervals)
{
    TraceConfig tc = smallTrace(120, 500.0);
    const RequestTrace trace = generateTrace(tc);
    ServeConfig sc = smallFleet(3);
    sc.policy.max_retries = 3;
    ServingSimulator sim(sc, benchmark(BenchmarkId::Text));
    const FaultPlan plan = parseFaultPlan(
        "kill:0@20,revive:0@120,kill:1@50,revive:1@90,kill:0@200,"
        "revive:0@260");
    const ServeReport r = sim.run(trace, plan, 9);
    EXPECT_EQ(r.completed + r.shed() + r.failed, r.requests);
    // No completed attempt's service span may intersect a down
    // interval of its device.
    for (const RequestOutcome &out : r.outcomes) {
        if (out.status != RequestStatus::Completed)
            continue;
        const DeviceServeStats &dev = r.devices[out.device];
        for (const auto &[down, up] : dev.down_intervals) {
            const bool overlaps =
                out.finish_ms > down + 1e-12 &&
                out.dispatch_ms < up - 1e-12;
            EXPECT_FALSE(overlaps)
                << "request " << out.id << " served on device "
                << out.device << " during [" << down << ", " << up
                << ")";
        }
    }
}

TEST(ServeSim, AllDeadMeansNoCompletions)
{
    const RequestTrace trace = generateTrace(smallTrace(20));
    ServingSimulator sim(smallFleet(2), benchmark(BenchmarkId::Text));
    const ServeReport r = sim.run(trace,
                                  parseFaultPlan("kill:0@0,kill:1@0"));
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.shed_starved, 20u);
    EXPECT_EQ(r.completed + r.shed() + r.failed, r.requests);
}

TEST(ServeSim, TransientErrorsExhaustRetries)
{
    FaultPlan plan;
    plan.transient_prob = 1.0; // every attempt fails
    const RequestTrace trace = generateTrace(smallTrace(15, 100.0));
    ServeConfig sc = smallFleet(2);
    sc.policy.max_retries = 2;
    sc.policy.breaker_threshold = 4;
    sc.policy.breaker_cooldown_ms = 10.0;
    ServingSimulator sim(sc, benchmark(BenchmarkId::Text));
    const ServeReport r = sim.run(trace, plan, 3);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.failed, 15u);
    EXPECT_EQ(r.retries, 15u * 2);
    EXPECT_EQ(r.transient_errors, 15u * 3);
    EXPECT_GT(r.breaker_trips, 0u);
    for (const RequestOutcome &out : r.outcomes)
        EXPECT_EQ(out.attempts, 3u);
}

TEST(ServeSim, TimeoutsFailLongRequests)
{
    // A timeout below the service time of the longest requests forces
    // timeout failures (and eventually terminal failure, since every
    // attempt times out again).
    TraceConfig tc = smallTrace(10, 50.0);
    tc.len_min = 4096;
    tc.len_max = 4096;
    const RequestTrace trace = generateTrace(tc);
    ServeConfig sc = smallFleet(2);
    ServingSimulator sim(sc, benchmark(BenchmarkId::Text));
    const double service = sim.serviceMs(0, 0, 4096);
    sc.policy.timeout_ms = service * 0.5;
    sc.policy.max_retries = 1;
    ServingSimulator strict(sc, benchmark(BenchmarkId::Text));
    const ServeReport r = strict.run(trace);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.failed, 10u);
    EXPECT_EQ(r.timeouts, 20u); // first attempt + one retry each
    EXPECT_EQ(r.completed + r.shed() + r.failed, r.requests);
}

TEST(ServeSim, OverloadShedsAtQueueBound)
{
    TraceConfig tc = smallTrace(80, 5000.0); // far beyond capacity
    tc.len_min = 2048;
    tc.len_max = 2048; // one length keeps cache warming cheap
    const RequestTrace trace = generateTrace(tc);
    ServeConfig sc = smallFleet(1);
    sc.policy.queue_limit = 4;
    ServingSimulator sim(sc, benchmark(BenchmarkId::Text));
    const ServeReport r = sim.run(trace);
    EXPECT_GT(r.shed_queue_full, 0u);
    EXPECT_EQ(r.completed + r.shed() + r.failed, r.requests);
    for (const RequestOutcome &out : r.outcomes)
        if (out.status == RequestStatus::ShedQueueFull) {
            EXPECT_EQ(out.attempts, 0u);
        }
}

TEST(ServeSim, MaxQueueAgeSheds)
{
    TraceConfig tc = smallTrace(60, 4000.0);
    tc.len_min = 2048;
    tc.len_max = 2048;
    const RequestTrace trace = generateTrace(tc);
    ServeConfig sc = smallFleet(1);
    sc.policy.queue_limit = 0; // unbounded depth, age does the shedding
    sc.policy.max_queue_age_ms = 30.0;
    ServingSimulator sim(sc, benchmark(BenchmarkId::Text));
    const ServeReport r = sim.run(trace);
    EXPECT_GT(r.shed_expired, 0u);
    EXPECT_EQ(r.completed + r.shed() + r.failed, r.requests);
}

TEST(ServeSim, DegradationLadderKicksInUnderPressure)
{
    // DOTA-F fleet under heavy overload with tight degrade thresholds:
    // some requests must be served at deeper ladder levels with lower
    // retention, and the served-retention bookkeeping must match.
    TraceConfig tc = smallTrace(100, 4000.0);
    tc.len_min = 1024;
    tc.len_max = 2048;
    const RequestTrace trace = generateTrace(tc);
    ServeConfig sc = smallFleet(2);
    sc.policy.queue_limit = 0;
    sc.policy.degrade_depth_1 = 1.0;
    sc.policy.degrade_depth_2 = 3.0;
    const Benchmark &bench = benchmark(BenchmarkId::Text);
    ServingSimulator sim(sc, bench);
    ASSERT_EQ(sim.ladderDepth(0), 3u);
    EXPECT_EQ(sim.deviceName(0, 0), "DOTA-F");
    EXPECT_EQ(sim.deviceName(0, 2), "DOTA-A");
    // Deeper levels keep less attention, so they serve faster.
    EXPECT_LT(sim.serviceMs(0, 2, 2048), sim.serviceMs(0, 0, 2048));
    const ServeReport r = sim.run(trace);
    EXPECT_EQ(r.completed, r.requests);
    ASSERT_EQ(r.completed_by_level.size(), 3u);
    EXPECT_GT(r.completed_by_level[1] + r.completed_by_level[2], 0u);
    EXPECT_LT(r.mean_retention, 1.0);
    double retention_sum = 0.0;
    for (const RequestOutcome &out : r.outcomes) {
        EXPECT_DOUBLE_EQ(
            out.retention,
            modeRetention(bench,
                          out.level == 0
                              ? DotaMode::Full
                              : out.level == 1
                                    ? DotaMode::Conservative
                                    : DotaMode::Aggressive));
        retention_sum += out.retention;
    }
    EXPECT_NEAR(r.mean_retention,
                retention_sum / double(r.completed), 1e-12);
}

TEST(ServeSim, EmptySpecListIsFatal)
{
    EXPECT_DEATH(
        ServingSimulator(ServeConfig{}, benchmark(BenchmarkId::Text)),
        "at least one accelerator");
}

TEST(ServeSim, NonDotaDevicesHaveNoLadder)
{
    ServeConfig sc;
    sc.devices = {DeviceSpec{"gpu-v100", 1, 1.0, DeviceOptions{}},
                  DeviceSpec{"dota-c", 1, 1.0, DeviceOptions{}}};
    ServingSimulator sim(sc, benchmark(BenchmarkId::Text));
    EXPECT_EQ(sim.ladderDepth(0), 1u);
    EXPECT_EQ(sim.ladderDepth(1), 2u); // dota-c can still go to dota-a
    EXPECT_EQ(sim.deviceName(0, 2), "GPU-V100"); // clamped
    EXPECT_DOUBLE_EQ(sim.retention(0, 2), 1.0);
}

TEST(ServeSim, StragglerSlowsOnlyItsInterval)
{
    // One device straggling at 100x for the whole run: dispatch routes
    // around it, so completions should concentrate on the healthy one.
    TraceConfig tc = smallTrace(30, 200.0);
    const RequestTrace trace = generateTrace(tc);
    ServingSimulator sim(smallFleet(2), benchmark(BenchmarkId::Text));
    const ServeReport r =
        sim.run(trace, parseFaultPlan("slow:0@0-100000x100"));
    EXPECT_EQ(r.completed, r.requests);
    EXPECT_GT(r.devices[1].completed, r.devices[0].completed);
}

} // namespace
} // namespace dota
