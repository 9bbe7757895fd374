/**
 * @file
 * Invariant tests of the continuous-batching generation engine
 * (serve/engine.hpp): token conservation, no decode token before its
 * prefill completed, strict-FIFO fairness (no starvation beyond the
 * configured step budget), deterministic preemption under KV pressure,
 * the DOTA-eviction memory win at equal output tokens, and the
 * 1-vs-8-thread bit-identity contract.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "serve/engine.hpp"
#include "serve_test_util.hpp"

namespace dota {
namespace {

using test::atBothThreadCounts;
using test::expectIdentical;
using test::smallEngine;
using test::smallGenTrace;

ServeReport
runEngine(const EngineConfig &ec, const GenTraceConfig &tc)
{
    const GenerationEngine engine(ec, benchmark(BenchmarkId::Text));
    return engine.run(generateGenTrace(tc));
}

// --------------------------------------------------------- conservation

TEST(ContinuousBatching, TokenAndRequestConservation)
{
    const GenTraceConfig tc = smallGenTrace(50, 300.0);
    const ServeReport rep = runEngine(smallEngine(3), tc);
    const GenTrace trace = generateGenTrace(tc);

    // Every request reaches exactly one terminal state.
    EXPECT_EQ(rep.requests, trace.requests.size());
    EXPECT_EQ(rep.completed + rep.shed() + rep.failed, rep.requests);
    EXPECT_GT(rep.completed, 0u);

    // Token conservation: each completed request emits exactly its
    // output_len tokens — one at prefill, the rest by decode steps.
    size_t expect_output = 0, expect_prompt = 0;
    for (const RequestOutcome &out : rep.outcomes) {
        if (out.status != RequestStatus::Completed)
            continue;
        const GenRequest &req = trace.requests[out.id];
        EXPECT_EQ(out.generated, req.output_len) << "request " << out.id;
        expect_output += req.output_len;
        expect_prompt += req.prompt_len;
    }
    EXPECT_EQ(rep.gen.output_tokens, expect_output);
    // No preemption in this roomy config: prefill work equals the
    // completed prompts and decode work the non-first output tokens.
    ASSERT_EQ(rep.gen.preemptions, 0u);
    EXPECT_EQ(rep.gen.prefill_tokens, expect_prompt);
    EXPECT_EQ(rep.gen.decode_tokens, expect_output - rep.completed);
    // A step can be both a prefill and a decode step (mixed batch), so
    // the phase counters bracket the total rather than partition it.
    EXPECT_GE(rep.gen.steps,
              std::max(rep.gen.prefill_steps, rep.gen.decode_steps));
    EXPECT_LE(rep.gen.steps,
              rep.gen.prefill_steps + rep.gen.decode_steps);
}

TEST(ContinuousBatching, EmptySpecListIsFatal)
{
    EXPECT_DEATH(GenerationEngine(EngineConfig{},
                                  benchmark(BenchmarkId::Text)),
                 "at least one accelerator");
}

// ------------------------------------------------- prefill-before-decode

TEST(ContinuousBatching, NoDecodeBeforePrefillCompletes)
{
    const GenTraceConfig tc = smallGenTrace(40, 250.0);
    EngineConfig ec = smallEngine(2);
    const GenerationEngine engine(ec, benchmark(BenchmarkId::Text));
    const GenTrace trace = generateGenTrace(tc);
    const ServeReport rep = engine.run(trace);
    for (const RequestOutcome &out : rep.outcomes) {
        if (out.status != RequestStatus::Completed)
            continue;
        const GenRequest &req = trace.requests[out.id];
        // The first token cannot appear before the prompt's prefill has
        // run to completion: TTFT covers at least the full prefill cost
        // at the served ladder level (queue wait only adds to it).
        const double prefill_ms = engine.prefillMs(
            static_cast<size_t>(out.device), out.level, req.prompt_len);
        EXPECT_GE(out.ttft_ms + 1e-9, prefill_ms)
            << "request " << out.id << " decoded before prefill";
        // And decode tokens follow the first token, never precede it.
        if (req.output_len > 1) {
            EXPECT_GT(out.tpot_ms, 0.0);
        }
        EXPECT_GE(out.finish_ms - req.arrival_ms, out.ttft_ms);
    }
}

// ------------------------------------------------------------- fairness

TEST(ContinuousBatching, StrictFifoAdmissionNeverStarves)
{
    // Overload two devices so a real queue builds up.
    GenTraceConfig tc = smallGenTrace(80, 2000.0);
    EngineConfig ec = smallEngine(2);
    ec.batch.starve_step_budget = 10000; // asserts inside the engine
    const ServeReport rep = runEngine(ec, tc);
    EXPECT_EQ(rep.completed + rep.shed() + rep.failed, rep.requests);
    EXPECT_LE(rep.gen.max_queue_wait_steps, ec.batch.starve_step_budget);

    // Strict FIFO: among never-preempted completions, prefill start
    // order follows (arrival, id) order — nobody is overtaken.
    std::vector<const RequestOutcome *> done;
    for (const RequestOutcome &out : rep.outcomes)
        if (out.status == RequestStatus::Completed && out.attempts == 1)
            done.push_back(&out);
    std::sort(done.begin(), done.end(),
              [](const RequestOutcome *a, const RequestOutcome *b) {
                  if (a->arrival_ms != b->arrival_ms)
                      return a->arrival_ms < b->arrival_ms;
                  return a->id < b->id;
              });
    for (size_t i = 1; i < done.size(); ++i)
        EXPECT_GE(done[i]->dispatch_ms + 1e-9, done[i - 1]->dispatch_ms)
            << "request " << done[i]->id << " overtook "
            << done[i - 1]->id;
}

// ------------------------------------------------------------ preemption

TEST(ContinuousBatching, PreemptionUnderKvPressureIsDeterministic)
{
    // Starve the KV arena so decode growth must preempt: budget of a
    // few hundred tokens against prompts that fit individually (any
    // prompt that could never fit is now shed at arrival instead of
    // entering the preemption machinery — see the admission guard).
    GenTraceConfig tc = smallGenTrace(30, 500.0);
    tc.arrivals.len_min = 64;
    tc.arrivals.len_max = 200;
    EngineConfig ec = smallEngine(2);
    ec.kv.evict_after_prefill = false; // keep full prompts resident
    ec.kv.dynamic_topk = false;
    ec.kv.budget_bytes = 2ull << 20; // 2 MB / 8 KB = 256 tokens
    const ServeReport a = runEngine(ec, tc);
    const ServeReport b = runEngine(ec, tc);
    expectIdentical(a, b);
    // The squeeze must actually bite, and every preempted-then-failed
    // or OOM-failed request still reaches a terminal state.
    EXPECT_GT(a.gen.preemptions + a.gen.kv_ooms, 0u);
    EXPECT_EQ(a.shed_infeasible, 0u); // everything fits individually
    EXPECT_EQ(a.completed + a.shed() + a.failed, a.requests);
    EXPECT_LE(a.gen.kv_peak_bytes, a.gen.kv_budget_bytes);
}

// ----------------------------------------------------- eviction A/B win

TEST(ContinuousBatching, DotaEvictionReducesPeakKvAtEqualOutput)
{
    const GenTraceConfig tc = smallGenTrace(40, 300.0);
    EngineConfig evict = smallEngine(2);
    EngineConfig dense = evict;
    dense.kv.evict_after_prefill = false;
    dense.kv.dynamic_topk = false;

    const ServeReport with = runEngine(evict, tc);
    const ServeReport without = runEngine(dense, tc);

    // Same completions and output tokens on both sides: the comparison
    // is at equal work, not equal luck.
    ASSERT_EQ(with.completed, with.requests);
    ASSERT_EQ(without.completed, without.requests);
    ASSERT_EQ(with.gen.output_tokens, without.gen.output_tokens);

    // The DOTA policy evicts weak prompt entries after prefill, so the
    // paged arena's high-water mark must drop.
    EXPECT_GT(with.gen.evictions, 0u);
    EXPECT_GT(with.gen.evicted_tokens, 0u);
    EXPECT_LT(with.gen.kv_peak_pages, without.gen.kv_peak_pages);
    EXPECT_LT(with.gen.kv_peak_bytes, without.gen.kv_peak_bytes);
    EXPECT_EQ(without.gen.evictions, 0u);
}

// ---------------------------------------------------------- determinism

TEST(ContinuousBatching, ReportBitIdenticalAt1And8Threads)
{
    auto [serial, parallel] = atBothThreadCounts([] {
        GenTraceConfig tc = smallGenTrace(60, 800.0, 17);
        EngineConfig ec = smallEngine(3);
        ec.policy.degrade_depth_1 = 2.0; // exercise the ladder too
        ec.policy.degrade_depth_2 = 4.0;
        return runEngine(ec, tc);
    });
    expectIdentical(serial, parallel);
    EXPECT_TRUE(serial.gen.enabled);
    EXPECT_GT(serial.completed, 0u);
}

TEST(ContinuousBatching, SeedsActuallyMatter)
{
    EngineConfig ec = smallEngine(2);
    const ServeReport a = runEngine(ec, smallGenTrace(40, 300.0, 1));
    const ServeReport b = runEngine(ec, smallGenTrace(40, 300.0, 2));
    EXPECT_NE(a.gen.ttft_p50_ms, b.gen.ttft_p50_ms);
}

// ------------------------------------------------- streaming prefill

/** Long-prompt trace: every prompt exceeds a 256-token step budget. */
GenTraceConfig
longPromptTrace(size_t requests)
{
    GenTraceConfig tc = smallGenTrace(requests, 50.0);
    tc.arrivals.len_min = 1000;
    tc.arrivals.len_max = 1600;
    return tc;
}

EngineConfig
chunkedEngine()
{
    EngineConfig ec = smallEngine(2);
    ec.batch.max_step_tokens = 256;
    ec.batch.streaming_prefill = true;
    ec.kv.budget_bytes = 256ull << 20;
    return ec;
}

TEST(ContinuousBatching, StreamingPrefillAdmitsOverBudgetPrompts)
{
    // Without chunking a prompt longer than the step budget fails
    // deterministically at the FIFO head; streaming prefill admits it
    // and spreads the prefill across steps, conserving every token.
    const GenTraceConfig tc = longPromptTrace(6);
    EngineConfig ec = chunkedEngine();
    ec.batch.streaming_prefill = false;
    const ServeReport plain = runEngine(ec, tc);
    EXPECT_EQ(plain.completed, 0u);
    EXPECT_EQ(plain.failed, plain.requests);

    ec.batch.streaming_prefill = true;
    const ServeReport chunked = runEngine(ec, tc);
    EXPECT_EQ(chunked.completed, chunked.requests);
    EXPECT_EQ(chunked.failed, 0u);

    const GenTrace trace = generateGenTrace(tc);
    size_t prompt_tokens = 0;
    for (const GenRequest &req : trace.requests)
        prompt_tokens += req.prompt_len;
    EXPECT_EQ(chunked.gen.prefill_tokens, prompt_tokens);
    // Each ~1000-token prefill needs >= 4 steps of 256; a one-step-
    // per-prefill engine could never exceed one step per request.
    EXPECT_GT(chunked.gen.prefill_steps, chunked.requests);
    // Completed sequences still emit exactly their output budget.
    for (const RequestOutcome &out : chunked.outcomes)
        EXPECT_EQ(out.generated, trace.requests[out.id].output_len);
}

TEST(ContinuousBatching, StreamingPrefillNoOpForShortPrompts)
{
    // Prompts under the step budget take the exact legacy schedule:
    // the flag must not perturb a single bit of the report.
    const GenTraceConfig tc = smallGenTrace(40, 300.0);
    EngineConfig ec = smallEngine(2);
    const ServeReport plain = runEngine(ec, tc);
    ec.batch.streaming_prefill = true;
    const ServeReport chunked = runEngine(ec, tc);
    expectIdentical(plain, chunked);
    EXPECT_GT(plain.completed, 0u);
}

TEST(ContinuousBatching, ChunkedPrefillBitIdenticalAt1And8Threads)
{
    auto [serial, parallel] = atBothThreadCounts(
        [] { return runEngine(chunkedEngine(), longPromptTrace(10)); });
    expectIdentical(serial, parallel);
    EXPECT_GT(serial.completed, 0u);
}

} // namespace
} // namespace dota
