/**
 * @file
 * Domain example: serving a mixed batch of long-sequence requests on a
 * scale-out DOTA deployment (Section 4.1's sequence-level parallelism).
 *
 * A batch of variable-length Text-classification requests (lengths drawn
 * from a heavy-tailed distribution, as request mixes are in practice) is
 * dispatched onto fleets of 1..8 accelerators; the example reports
 * latency, throughput scaling, and utilization, compares DOTA-C against
 * DOTA-F (no detection) fleets, and continues with a *heterogeneous*
 * fleet mixing DOTA-C parts of two speed bins with a dense DOTA-F card
 * — the speed-aware dispatcher routes work to whoever completes it
 * first.
 *
 * The finale is a chaos run on the online serving simulator
 * (src/serve/): the same Poisson request stream replayed against a
 * healthy 8-accelerator fleet and against one that loses a quarter of
 * its capacity mid-trace — failover rescues the in-flight work, the
 * circuit breaker and retries absorb transient errors, and the
 * graceful-degradation ladder sheds detector retention (accuracy) to
 * hold latency. Both runs are replayable bit-for-bit from their
 * (arrival, fault) seeds.
 *
 * The closing act pits the two failover strategies against each other
 * on a kill + drain plan: re-prefill-only (migration off) versus live
 * KV migration (DESIGN.md §15), which moves sealed pages to a healthy
 * arena instead of recomputing them — the wasted-versus-saved token
 * table is the whole argument.
 *
 * Run: ./build/examples/serving_fleet
 */
#include <iostream>

#include "core/dota.hpp"

using namespace dota;

namespace {

std::vector<size_t>
requestMix(size_t count, Rng &rng)
{
    // Heavy-tailed lengths between 256 and 4096, rounded to 128.
    std::vector<size_t> lens;
    lens.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        const double u = rng.uniform();
        const double len = 256.0 * std::pow(4096.0 / 256.0, u * u);
        lens.push_back(
            std::min<size_t>(4096, ((static_cast<size_t>(len) + 127) /
                                    128) * 128));
    }
    return lens;
}

} // namespace

int
main()
{
    std::cout << "== Scale-out serving on DOTA accelerators ==\n\n";
    Rng rng(2024);
    const std::vector<size_t> batch = requestMix(48, rng);
    std::cout << "batch: " << batch.size()
              << " Text-model requests, lengths 256-4096 tokens "
                 "(heavy-tailed)\n\n";

    const Benchmark &bench = benchmark(BenchmarkId::Text);

    Table t("fleet scaling (DOTA-C, Table 2 accelerators)");
    t.header({"accelerators", "makespan", "throughput", "mean latency",
              "utilization"});
    double first_makespan = 0.0;
    double eight_makespan = 0.0;
    for (size_t n : {1u, 2u, 4u, 8u}) {
        FleetSimulator fleet({DeviceSpec{"dota-c", n, 1.0,
                                         DeviceOptions::table2()}},
                             bench);
        const FleetReport r = fleet.run(batch);
        if (n == 1)
            first_makespan = r.makespan_ms;
        if (n == 8)
            eight_makespan = r.makespan_ms;
        t.addRow({fmtNum(double(n), 0), fmtNum(r.makespan_ms, 2) + "ms",
                  fmtNum(r.throughput_seq_s, 1) + " seq/s",
                  fmtNum(r.mean_latency_ms, 2) + "ms",
                  fmtPct(r.utilization)});
    }
    t.print(std::cout);
    std::cout << "speedup at 8 accelerators: "
              << fmtSpeedup(first_makespan / eight_makespan)
              << " (near-linear: jobs are independent)\n\n";

    // Detection on vs off for the same fleet.
    Table d("DOTA-C vs DOTA-F fleets (4 accelerators)");
    d.header({"mode", "makespan", "throughput", "energy/seq"});
    for (DotaMode mode : {DotaMode::Full, DotaMode::Conservative,
                          DotaMode::Aggressive}) {
        FleetSimulator fleet({DeviceSpec{dotaModeKey(mode), 4, 1.0,
                                         DeviceOptions::table2()}},
                             bench);
        const FleetReport r = fleet.run(batch);
        d.addRow({dotaModeName(mode), fmtNum(r.makespan_ms, 2) + "ms",
                  fmtNum(r.throughput_seq_s, 1) + " seq/s",
                  fmtNum(r.energy_per_seq_j * 1e3, 2) + "mJ"});
    }
    d.print(std::cout);
    std::cout << "\nDetection multiplies fleet throughput on the same "
                 "silicon — the system-level\npayoff of omitting weak "
                 "attentions.\n\n";

    // Heterogeneous fleet: mixed device kinds and speed bins, one batch.
    const FleetSimulator mixed(
        {
            DeviceSpec{"dota-c", 2, 1.0, DeviceOptions::table2()},
            DeviceSpec{"dota-c", 1, 1.5, DeviceOptions::table2()},
            DeviceSpec{"dota-f", 1, 1.0, DeviceOptions::table2()},
        },
        bench);
    const FleetReport hr = mixed.run(batch);
    Table h("heterogeneous fleet (2x DOTA-C, 1x DOTA-C @1.5x, "
            "1x DOTA-F)");
    // Equal busy times are the *goal*: the 1.5x bin retires 1.5x the
    // work per wall-clock ms, so weight busy time by speed to see who
    // actually carried the batch.
    const std::vector<double> speeds{1.0, 1.0, 1.5, 1.0};
    double weighted = 0.0;
    for (size_t a = 0; a < hr.accel_busy_ms.size(); ++a)
        weighted += hr.accel_busy_ms[a] * speeds[a];
    h.header({"accelerator", "device", "speed", "busy", "work share"});
    for (size_t a = 0; a < hr.accel_busy_ms.size(); ++a)
        h.addRow({fmtNum(double(a), 0), hr.accel_device[a],
                  fmtNum(speeds[a], 1) + "x",
                  fmtNum(hr.accel_busy_ms[a], 2) + "ms",
                  fmtPct(hr.accel_busy_ms[a] * speeds[a] / weighted)});
    h.print(std::cout);
    std::cout << "makespan " << fmtNum(hr.makespan_ms, 2) << "ms, "
              << fmtNum(hr.throughput_seq_s, 1) << " seq/s, energy/seq "
              << fmtNum(hr.energy_per_seq_j * 1e3, 2)
              << "mJ — near-equal busy times with the 1.5x bin\n"
                 "absorbing the largest work share is exactly what "
                 "speed-aware dispatch should produce.\n\n";

    // Chaos: online serving while a quarter of the fleet dies mid-run.
    std::cout << "== Chaos run: online serving under fail-stop faults "
                 "==\n\n";
    TraceConfig tc;
    tc.process = ArrivalProcess::Poisson;
    tc.rate_per_s = 1400.0;
    tc.requests = 300;
    tc.seed = 42;            // arrival seed
    tc.deadline_ms = 150.0;
    ServeConfig sc;
    // Full retention until pressure mounts.
    sc.devices = {DeviceSpec{"dota-f", 8, 1.0, DeviceOptions::table2()}};
    sc.policy.timeout_ms = 80.0;
    sc.policy.max_retries = 3;
    sc.policy.queue_limit = 96;
    sc.policy.degrade_depth_1 = 1.0;
    sc.policy.degrade_depth_2 = 3.0;
    const RequestTrace trace = generateTrace(tc);
    ServingSimulator sim(sc, bench);
    std::cout << "trace: " << trace.requests.size()
              << " requests, Poisson " << fmtNum(tc.rate_per_s, 0)
              << " req/s (seed " << tc.seed << "), deadline "
              << fmtNum(tc.deadline_ms, 0) << "ms, fleet of "
              << sim.size() << " DOTA-F accelerators\n\n";

    // Two accelerators fail-stop mid-trace (one comes back), a third
    // straggles at 4x for a while, and every attempt can transiently
    // fail with 2% probability.
    const FaultPlan plan = parseFaultPlan(
        "kill:0@120,kill:1@160,revive:0@420,slow:2@100-400x4,"
        "transient:0.02");
    const uint64_t fault_seed = 2024;
    std::cout << "fault plan: " << describeFaultPlan(plan)
              << " (fault seed " << fault_seed << ")\n\n";

    const ServeReport healthy = sim.run(trace);
    const ServeReport chaos = sim.run(trace, plan, fault_seed);
    Table c("healthy vs chaos (same arrival seed)");
    c.header({"metric", "healthy", "chaos"});
    c.addRow({"completed", fmtNum(double(healthy.completed), 0),
              fmtNum(double(chaos.completed), 0)});
    c.addRow({"failed / shed",
              format("{} / {}", healthy.failed, healthy.shed()),
              format("{} / {}", chaos.failed, chaos.shed())});
    c.addRow({"retries + failovers",
              fmtNum(double(healthy.retries + healthy.failovers), 0),
              fmtNum(double(chaos.retries + chaos.failovers), 0)});
    c.addRow({"p50 latency", fmtNum(healthy.p50_ms, 2) + "ms",
              fmtNum(chaos.p50_ms, 2) + "ms"});
    c.addRow({"p99 latency", fmtNum(healthy.p99_ms, 2) + "ms",
              fmtNum(chaos.p99_ms, 2) + "ms"});
    c.addRow({"deadline miss rate", fmtPct(healthy.deadline_miss_rate),
              fmtPct(chaos.deadline_miss_rate)});
    c.addRow({"goodput", fmtNum(healthy.goodput_seq_s, 1) + " seq/s",
              fmtNum(chaos.goodput_seq_s, 1) + " seq/s"});
    c.addRow({"mean retention served", fmtNum(healthy.mean_retention, 3),
              fmtNum(chaos.mean_retention, 3)});
    c.print(std::cout);
    std::cout << "\nfull chaos report:\n";
    chaos.print(std::cout);
    std::cout << "\nzero lost requests: " << chaos.requests << " = "
              << chaos.completed << " completed + " << chaos.shed()
              << " shed + " << chaos.failed
              << " failed — failover re-queued every in-flight request "
                 "of the dead\naccelerators, and the retention ladder "
                 "(L0 full -> L2 aggressive) traded accuracy\nfor "
                 "latency while capacity was down.\n";

    // Chaos generation: the token-grain engine under the same abuse —
    // device kills mid-decode, a KV page corrupted in DRAM, transient
    // step errors — with per-page CRC seals catching the corruption
    // before any poisoned token is served (DESIGN.md §14).
    std::cout << "\n== Chaos generation: continuous batching under "
                 "faults ==\n\n";
    GenTraceConfig gc;
    gc.arrivals.rate_per_s = 400.0;
    gc.arrivals.requests = 64;
    gc.arrivals.seed = 71;
    gc.out_min = 96;
    gc.out_max = 256;
    EngineConfig ec;
    ec.devices = {DeviceSpec{"dota-f", 3, 1.0, DeviceOptions::table2()}};
    ec.batch.max_batch_seqs = 4;
    ec.batch.watchdog_stall_ms = 25.0;
    ec.policy.degrade_depth_1 = 3.0;
    ec.policy.degrade_depth_2 = 6.0;
    const GenTrace gtrace = generateGenTrace(gc);
    const FaultPlan gplan = parseFaultPlan(
        "kill:0@30,revive:0@95,kill:1@60,revive:1@150,corrupt:2@45,"
        "corrupt:2@75,transient:0.01");
    const uint64_t gen_fault_seed = 7;
    std::cout << "trace: " << gtrace.requests.size()
              << " generation requests (outputs 96-256 tokens), fleet "
                 "of 3 DOTA accelerators\nfault plan: "
              << describeFaultPlan(gplan) << " (fault seed "
              << gen_fault_seed << ")\n\n";

    const GenerationEngine gen(ec, bench);
    const ServeReport ghealthy = gen.run(gtrace);
    const ServeReport gchaos = gen.run(gtrace, gplan, gen_fault_seed);
    Table g("healthy vs chaos generation (same arrival seed)");
    g.header({"metric", "healthy", "chaos"});
    g.addRow({"completed", fmtNum(double(ghealthy.completed), 0),
              fmtNum(double(gchaos.completed), 0)});
    g.addRow({"TTFT p50", fmtNum(ghealthy.gen.ttft_p50_ms, 2) + "ms",
              fmtNum(gchaos.gen.ttft_p50_ms, 2) + "ms"});
    g.addRow({"TTFT p99", fmtNum(ghealthy.gen.ttft_p99_ms, 2) + "ms",
              fmtNum(gchaos.gen.ttft_p99_ms, 2) + "ms"});
    g.addRow({"TPOT p50", fmtNum(ghealthy.gen.tpot_p50_ms, 3) + "ms",
              fmtNum(gchaos.gen.tpot_p50_ms, 3) + "ms"});
    g.addRow({"failovers (prefill/decode)",
              format("{}/{}", ghealthy.gen.prefill_failovers,
                     ghealthy.gen.decode_failovers),
              format("{}/{}", gchaos.gen.prefill_failovers,
                     gchaos.gen.decode_failovers)});
    g.addRow({"wasted decode tokens",
              fmtNum(double(ghealthy.gen.wasted_decode_tokens), 0),
              fmtNum(double(gchaos.gen.wasted_decode_tokens), 0)});
    g.addRow({"corrupted pages caught",
              fmtNum(double(ghealthy.gen.corrupted_pages_detected), 0),
              fmtNum(double(gchaos.gen.corrupted_pages_detected), 0)});
    g.addRow({"recoveries (p95)",
              format("{} ({}ms)", ghealthy.gen.recoveries,
                     fmtNum(ghealthy.gen.recovery_p95_ms, 1)),
              format("{} ({}ms)", gchaos.gen.recoveries,
                     fmtNum(gchaos.gen.recovery_p95_ms, 1))});
    g.addRow({"mean retention served",
              fmtNum(ghealthy.mean_retention, 3),
              fmtNum(gchaos.mean_retention, 3)});
    g.print(std::cout);
    std::cout << "\nzero lost requests (" << gchaos.requests << " = "
              << gchaos.completed << " + " << gchaos.shed() << " + "
              << gchaos.failed
              << ") and zero corrupted tokens served: every completed "
                 "request re-emitted its\nfull output budget after "
                 "failover or quarantine, and both runs replay "
                 "bit-for-bit\nfrom (arrival seed, fault plan, fault "
                 "seed).\n";

    // Live KV migration vs re-prefill-only: the same kill + drain plan
    // — one device dies mid-decode, another is gracefully drained for
    // maintenance — served twice. With migration off every victim
    // recomputes its prompt from scratch (wasted prefill tokens); with
    // it on, sealed KV pages move to a healthy arena, are seal-checked
    // on arrival, and decode resumes mid-stream (DESIGN.md §15).
    std::cout << "\n== Live KV migration: failover without re-prefill "
                 "==\n\n";
    const FaultPlan mplan =
        parseFaultPlan("kill:0@30,drain:1@60,revive:0@120");
    std::cout << "fault plan: " << describeFaultPlan(mplan)
              << " (fault seed " << gen_fault_seed << ")\n\n";
    EngineConfig base = ec;
    base.migrate.enabled = false;
    base.migrate.probation_steps = 0;
    const GenerationEngine reprefill(base, bench);
    const GenerationEngine live(ec, bench); // defaults: migration on
    const ServeReport roff = reprefill.run(gtrace, mplan, gen_fault_seed);
    const ServeReport ron = live.run(gtrace, mplan, gen_fault_seed);
    Table m("re-prefill-only vs live migration (same kill + drain)");
    m.header({"metric", "re-prefill", "migration"});
    m.addRow({"completed", fmtNum(double(roff.completed), 0),
              fmtNum(double(ron.completed), 0)});
    m.addRow({"sequences migrated", "0",
              fmtNum(double(ron.gen.migrations), 0)});
    m.addRow({"pages moved / bytes",
              "0 / 0",
              format("{} / {}", ron.gen.migrated_pages,
                     fmtBytes(double(ron.gen.migrated_bytes)))});
    m.addRow({"wasted prefill tokens",
              fmtNum(double(roff.gen.wasted_prefill_tokens), 0),
              fmtNum(double(ron.gen.wasted_prefill_tokens), 0)});
    m.addRow({"saved prefill tokens", "0",
              fmtNum(double(ron.gen.saved_prefill_tokens), 0)});
    m.addRow({"saved decode tokens", "0",
              fmtNum(double(ron.gen.saved_decode_tokens), 0)});
    m.addRow({"migration p95",
              "-", fmtNum(ron.gen.migration_p95_ms, 2) + "ms"});
    m.addRow({"TTFT p99", fmtNum(roff.gen.ttft_p99_ms, 2) + "ms",
              fmtNum(ron.gen.ttft_p99_ms, 2) + "ms"});
    m.print(std::cout);
    std::cout << "\nthe drain emptied its device without losing a "
                 "token of progress ("
              << ron.gen.saved_prefill_tokens << " prefill +\n"
              << ron.gen.saved_decode_tokens
              << " decode tokens kept live), and the revived device "
                 "re-earned full duty\nthrough "
              << ron.gen.probation_promotions
              << " probation promotion(s) — wasted prefill fell from "
              << roff.gen.wasted_prefill_tokens << " to "
              << ron.gen.wasted_prefill_tokens << " tokens.\n";
    return 0;
}
