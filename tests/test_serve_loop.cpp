/**
 * @file
 * Trace-id checks of the serving loop skeleton (serve/serve_loop.hpp):
 * both loops index per-request state by id, so a hand-built trace whose
 * ids are not dense 0..n-1, or repeat one, must stop at report set-up
 * instead of writing out of bounds.
 */
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "serve/engine.hpp"
#include "serve/simulator.hpp"
#include "serve_test_util.hpp"

namespace dota {
namespace {

/** Whole requests with ids @p ids, arriving 1 ms apart. */
RequestTrace
requestTrace(const std::vector<size_t> &ids)
{
    RequestTrace trace;
    for (size_t i = 0; i < ids.size(); ++i)
        trace.requests.push_back(Request{ids[i], double(i), 256, 1e9});
    return trace;
}

/** Generation requests with ids @p ids, arriving 1 ms apart. */
GenTrace
genTrace(const std::vector<size_t> &ids)
{
    GenTrace trace;
    for (size_t i = 0; i < ids.size(); ++i)
        trace.requests.push_back(GenRequest{ids[i], double(i), 128, 8, 1e9});
    return trace;
}

ServeReport
simulate(const RequestTrace &trace)
{
    const ServingSimulator sim(test::smallFleet(2),
                               benchmark(BenchmarkId::Text));
    return sim.run(trace);
}

ServeReport
generate(const GenTrace &trace)
{
    const GenerationEngine engine(test::smallEngine(2),
                                  benchmark(BenchmarkId::Text));
    return engine.run(trace);
}

TEST(ServeTraceIdsDeathTest, SimulatorRejectsOutOfRangeId)
{
    EXPECT_DEATH(simulate(requestTrace({0, 5})), "dense and unique");
}

TEST(ServeTraceIdsDeathTest, SimulatorRejectsDuplicateId)
{
    EXPECT_DEATH(simulate(requestTrace({1, 1})), "dense and unique");
}

TEST(ServeTraceIdsDeathTest, EngineRejectsOutOfRangeId)
{
    EXPECT_DEATH(generate(genTrace({0, 5})), "dense and unique");
}

TEST(ServeTraceIdsDeathTest, EngineRejectsDuplicateId)
{
    EXPECT_DEATH(generate(genTrace({1, 1})), "dense and unique");
}

TEST(ServeTraceIds, PermutedDenseIdsServeLikeSortedOnes)
{
    // Dense ids in any order are valid: outcomes land by id.
    const ServeReport sorted = simulate(requestTrace({0, 1, 2}));
    RequestTrace permuted = requestTrace({0, 1, 2});
    std::swap(permuted.requests[0], permuted.requests[2]);
    const ServeReport rep = simulate(permuted);
    EXPECT_EQ(rep.completed, 3u);
    ASSERT_EQ(rep.outcomes.size(), 3u);
    for (size_t id = 0; id < 3; ++id) {
        EXPECT_EQ(rep.outcomes[id].id, id);
        EXPECT_EQ(rep.outcomes[id].finish_ms, sorted.outcomes[id].finish_ms);
    }
}

} // namespace
} // namespace dota
