/**
 * @file
 * Whole-report golden for both serving loops: four fixed scenarios are
 * served and every field of their ServeReports — each report and
 * GenMetrics scalar, each DeviceServeStats field (down intervals
 * included) and each RequestOutcome field — is pinned bit-exactly
 * against tests/data/golden_serve_reports.txt, at DOTA_THREADS=1 and 8.
 *
 * The scenarios are the chaos run of ServeDeterminism (arrival seed
 * 42, fault seed 7) on the ServingSimulator, and the generation,
 * chaos-generation and migration golden runs on the GenerationEngine.
 * The per-suite goldens pin a few headline fields each; this one pins
 * the rest, so a refactor of either event loop that moves any number
 * fails here.
 *
 * Regenerate (after an intentional serving or cost-model change) with:
 *   DOTA_REGEN_GOLDEN=1 ./dota_serve_tests \
 *       --gtest_filter='ServeReportsGolden.*'
 * and commit the rewritten tests/data/golden_serve_reports.txt.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "serve/engine.hpp"
#include "serve/fault.hpp"
#include "serve/simulator.hpp"
#include "serve_test_util.hpp"

namespace dota {
namespace {

std::string
goldenPath()
{
    return std::string(DOTA_TEST_DATA_DIR) + "/golden_serve_reports.txt";
}

/** ServeDeterminism's chaos scenario, chaosRun(42, 7). */
ServeReport
simulatorChaosRun()
{
    TraceConfig tc;
    tc.rate_per_s = 500.0;
    tc.requests = 160;
    tc.seed = 42;
    tc.deadline_ms = 130.0;
    tc.len_min = 256;
    tc.len_max = 2048;
    ServeConfig sc;
    sc.devices = {DeviceSpec{"dota-f", 6, 1.0, DeviceOptions::table2()}};
    sc.policy.timeout_ms = 70.0;
    sc.policy.max_retries = 3;
    sc.policy.queue_limit = 48;
    sc.policy.degrade_depth_1 = 2.0;
    sc.policy.degrade_depth_2 = 4.0;
    const ServingSimulator sim(sc, benchmark(BenchmarkId::Text));
    const FaultPlan plan = parseFaultPlan(
        "kill:0@50,kill:1@80,revive:0@250,slow:2@40-200x6,"
        "transient:0.05,mtbf:4000x200");
    return sim.run(generateTrace(tc), plan, 7);
}

/** Engine config shared by the three engine scenarios. */
EngineConfig
goldenEngine()
{
    EngineConfig ec = test::smallEngine(3);
    ec.policy.degrade_depth_1 = 3.0;
    ec.policy.degrade_depth_2 = 6.0;
    return ec;
}

/** GenerationGolden's fault-free run. */
ServeReport
generationRun()
{
    const GenerationEngine engine(goldenEngine(),
                                  benchmark(BenchmarkId::Text));
    return engine.run(generateGenTrace(test::smallGenTrace(48, 400.0, 71)));
}

/**
 * ChaosGeneration's re-prefill run (@p migrate off) or Migration's
 * live-migration run (@p migrate on) under fault plan @p plan.
 */
ServeReport
chaosEngineRun(const char *plan, bool migrate)
{
    GenTraceConfig tc = test::smallGenTrace(48, 400.0, 71);
    tc.out_min = 96;
    tc.out_max = 256;
    EngineConfig ec = goldenEngine();
    ec.batch.watchdog_stall_ms = 25.0;
    ec.migrate.enabled = migrate;
    ec.migrate.probation_steps = migrate ? 8 : 0;
    const GenerationEngine engine(ec, benchmark(BenchmarkId::Text));
    return engine.run(generateGenTrace(tc), parseFaultPlan(plan), 7);
}

/**
 * Every field of @p rep, one "scenario.field value..." line each.
 * Doubles render as C99 hex floats so the round trip is bit-exact.
 */
void
serialize(std::ostream &os, const std::string &scenario,
          const ServeReport &rep)
{
    auto hex = [](double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%a", v);
        return std::string(buf);
    };
    auto put = [&](const std::string &key, const std::string &value) {
        os << scenario << '.' << key << ' ' << value << '\n';
    };
    auto num = [&](const std::string &key, size_t v) {
        put(key, std::to_string(v));
    };
    auto dbl = [&](const std::string &key, double v) { put(key, hex(v)); };

    num("requests", rep.requests);
    num("completed", rep.completed);
    num("failed", rep.failed);
    num("shed_queue_full", rep.shed_queue_full);
    num("shed_expired", rep.shed_expired);
    num("shed_starved", rep.shed_starved);
    num("shed_infeasible", rep.shed_infeasible);
    num("retries", rep.retries);
    num("failovers", rep.failovers);
    num("transient_errors", rep.transient_errors);
    num("timeouts", rep.timeouts);
    num("breaker_trips", rep.breaker_trips);
    dbl("p50_ms", rep.p50_ms);
    dbl("p95_ms", rep.p95_ms);
    dbl("p99_ms", rep.p99_ms);
    dbl("mean_latency_ms", rep.mean_latency_ms);
    dbl("max_latency_ms", rep.max_latency_ms);
    num("deadline_misses", rep.deadline_misses);
    dbl("deadline_miss_rate", rep.deadline_miss_rate);
    dbl("goodput_seq_s", rep.goodput_seq_s);
    dbl("horizon_ms", rep.horizon_ms);
    dbl("total_energy_j", rep.total_energy_j);
    for (size_t l = 0; l < rep.completed_by_level.size(); ++l)
        num("completed_by_level." + std::to_string(l),
            rep.completed_by_level[l]);
    dbl("mean_retention", rep.mean_retention);

    const GenMetrics &g = rep.gen;
    num("gen.enabled", g.enabled ? 1 : 0);
    num("gen.steps", g.steps);
    num("gen.prefill_steps", g.prefill_steps);
    num("gen.decode_steps", g.decode_steps);
    num("gen.prefill_tokens", g.prefill_tokens);
    num("gen.decode_tokens", g.decode_tokens);
    num("gen.output_tokens", g.output_tokens);
    dbl("gen.ttft_p50_ms", g.ttft_p50_ms);
    dbl("gen.ttft_p95_ms", g.ttft_p95_ms);
    dbl("gen.ttft_p99_ms", g.ttft_p99_ms);
    dbl("gen.tpot_p50_ms", g.tpot_p50_ms);
    dbl("gen.tpot_p95_ms", g.tpot_p95_ms);
    dbl("gen.tpot_p99_ms", g.tpot_p99_ms);
    num("gen.kv_page_tokens", g.kv_page_tokens);
    num("gen.kv_pages_total", g.kv_pages_total);
    num("gen.kv_budget_bytes", g.kv_budget_bytes);
    num("gen.kv_peak_pages", g.kv_peak_pages);
    num("gen.kv_peak_bytes", g.kv_peak_bytes);
    dbl("gen.kv_peak_occupancy", g.kv_peak_occupancy);
    num("gen.evictions", g.evictions);
    num("gen.evicted_tokens", g.evicted_tokens);
    num("gen.preemptions", g.preemptions);
    num("gen.kv_ooms", g.kv_ooms);
    num("gen.max_queue_wait_steps", g.max_queue_wait_steps);
    num("gen.prefill_failovers", g.prefill_failovers);
    num("gen.decode_failovers", g.decode_failovers);
    num("gen.wasted_prefill_tokens", g.wasted_prefill_tokens);
    num("gen.wasted_decode_tokens", g.wasted_decode_tokens);
    num("gen.transient_steps", g.transient_steps);
    num("gen.corrupted_pages_detected", g.corrupted_pages_detected);
    num("gen.corruption_reprefills", g.corruption_reprefills);
    num("gen.quarantined_pages", g.quarantined_pages);
    num("gen.watchdog_migrations", g.watchdog_migrations);
    num("gen.recoveries", g.recoveries);
    dbl("gen.recovery_p50_ms", g.recovery_p50_ms);
    dbl("gen.recovery_p95_ms", g.recovery_p95_ms);
    dbl("gen.recovery_max_ms", g.recovery_max_ms);
    num("gen.drains", g.drains);
    num("gen.migrations", g.migrations);
    num("gen.migrated_pages", g.migrated_pages);
    num("gen.migrated_bytes", g.migrated_bytes);
    num("gen.migration_no_target", g.migration_no_target);
    num("gen.migration_poisoned", g.migration_poisoned);
    num("gen.saved_prefill_tokens", g.saved_prefill_tokens);
    num("gen.saved_decode_tokens", g.saved_decode_tokens);
    dbl("gen.migration_p50_ms", g.migration_p50_ms);
    dbl("gen.migration_p95_ms", g.migration_p95_ms);
    dbl("gen.migration_max_ms", g.migration_max_ms);
    num("gen.probation_promotions", g.probation_promotions);
    num("gen.probation_demotions", g.probation_demotions);

    for (size_t d = 0; d < rep.devices.size(); ++d) {
        const DeviceServeStats &s = rep.devices[d];
        std::string down;
        for (const auto &[from, to] : s.down_intervals)
            down += ' ' + hex(from) + ':' + hex(to);
        put("device." + std::to_string(d),
            s.name + ' ' + hex(s.busy_ms) + ' ' +
                std::to_string(s.completed) + ' ' +
                std::to_string(s.failed_attempts) + ' ' +
                std::to_string(s.breaker_trips) + down);
    }
    // id arrival seq_len status device dispatch finish attempts level
    // retention deadline_missed generated ttft tpot
    for (size_t i = 0; i < rep.outcomes.size(); ++i) {
        const RequestOutcome &o = rep.outcomes[i];
        std::ostringstream line;
        line << o.id << ' ' << hex(o.arrival_ms) << ' ' << o.seq_len << ' '
             << requestStatusName(o.status) << ' ' << o.device << ' '
             << hex(o.dispatch_ms) << ' ' << hex(o.finish_ms) << ' '
             << o.attempts << ' ' << o.level << ' ' << hex(o.retention)
             << ' ' << (o.deadline_missed ? 1 : 0) << ' ' << o.generated
             << ' ' << hex(o.ttft_ms) << ' ' << hex(o.tpot_ms);
        put("outcome." + std::to_string(i), line.str());
    }
}

/** All four scenarios, serialized in a fixed order. */
std::vector<std::string>
allReports()
{
    std::ostringstream os;
    serialize(os, "simulator_chaos", simulatorChaosRun());
    serialize(os, "generation", generationRun());
    serialize(os, "chaos_generation",
              chaosEngineRun("kill:0@30,revive:0@95,kill:1@60,"
                             "revive:1@150,corrupt:2@45,corrupt:2@75,"
                             "transient:0.01",
                             false));
    serialize(os, "migration",
              chaosEngineRun("kill:0@30,revive:0@95,drain:1@60,"
                             "corrupt:2@45,transient:0.01",
                             true));
    std::vector<std::string> lines;
    std::istringstream in(os.str());
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

std::vector<std::string>
readGolden()
{
    std::ifstream in(goldenPath());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    return lines;
}

void
writeGolden(const std::vector<std::string> &lines)
{
    std::ofstream out(goldenPath());
    out << "# Every ServeReport field of four serving scenarios (see\n"
        << "# test_serve_reports_golden.cpp). Doubles are C99 hex floats.\n"
        << "# Regenerate with DOTA_REGEN_GOLDEN=1 after intentional\n"
        << "# serving or cost-model changes.\n";
    for (const std::string &line : lines)
        out << line << "\n";
}

void
expectMatchesGolden(const std::vector<std::string> &lines)
{
    const std::vector<std::string> golden = readGolden();
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << goldenPath()
        << " — regenerate with DOTA_REGEN_GOLDEN=1";
    ASSERT_EQ(lines.size(), golden.size());
    size_t mismatches = 0;
    for (size_t i = 0; i < lines.size() && mismatches < 20; ++i) {
        EXPECT_EQ(lines[i], golden[i]);
        mismatches += lines[i] != golden[i] ? 1 : 0;
    }
}

TEST(ServeReportsGolden, EveryFieldMatchesGoldenFileAt1And8Threads)
{
    if (envFlag("DOTA_REGEN_GOLDEN")) {
        test::ScopedThreads serial(1);
        writeGolden(allReports());
        GTEST_SKIP() << "regenerated " << goldenPath();
    }
    auto [serial, parallel] = test::atBothThreadCounts(allReports);
    expectMatchesGolden(serial);
    expectMatchesGolden(parallel);
}

} // namespace
} // namespace dota
