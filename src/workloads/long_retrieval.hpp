/**
 * @file
 * Long-context needle-retrieval workload (32k-128k tokens).
 *
 * The paper's figures stop at 4k tokens because a dense n x n score
 * matrix is the limiting factor. The row attention kernel
 * (DESIGN.md §13) removes that limit, and this family exists to
 * exercise it at 32k+ where the dense path would need gigabytes of
 * score memory: a single attention head whose inputs are synthesized
 * directly (no model training at this scale), with a handful of
 * planted *needle* keys scattered through a long noise sequence.
 *
 * Every query is tuned to one specific needle: its query vector leans
 * toward that needle's key direction, and the needle's value row
 * carries a one-hot payload channel. Correct attention therefore
 * concentrates each row's softmax mass on its target needle and copies
 * the payload into the output, where `needleRecall` reads it back with
 * an argmax — near 1.0 for a faithful kernel, ~1/needles for a broken
 * one. Because the task is judged end-to-end on the attention *output*,
 * it validates either attention path (dense, or the row kernel without
 * ever materializing dense scores).
 *
 * The companion mask keeps, per row, the needles plus a local window
 * plus optional random distractors — the hub + locality structure of
 * Section 4.3 — and is built natively as a SparseMask: at 128k a dense
 * mask would be 64 GiB, so no dense detour exists anywhere here.
 *
 * Determinism: every row of Q/K/V is filled from its own counter-based
 * child generator, so construction parallelizes over rows yet is
 * bit-identical at any DOTA_THREADS.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "tensor/matrix.hpp"
#include "tensor/sparse_mask.hpp"

namespace dota {

/** Shape and signal knobs of a long-retrieval case. */
struct LongRetrievalConfig
{
    size_t seq_len = 32768;   ///< tokens (the family spans 32k-128k)
    size_t head_dim = 64;     ///< single-head width
    size_t needles = 8;       ///< planted signal keys (payload channels
                              ///< live in [0, needles), so <= head_dim)
    double needle_gain = 6.0; ///< query/needle-key alignment strength
    double noise_std = 1.0;   ///< background Q/K/V noise
    size_t window = 64;       ///< local half-width kept by the mask
    size_t extra_keys = 0;    ///< random distractor keys per mask row
    uint64_t seed = 0x10e6;   ///< master seed
};

/** One synthesized retrieval instance. */
struct LongRetrievalCase
{
    Matrix q, k, v;                   ///< seq_len x head_dim each
    SparseMask mask;                  ///< needles + window (+ extras)
    std::vector<uint32_t> needle_pos; ///< ascending needle positions
    std::vector<uint32_t> target;     ///< per-row target needle index
    float scale = 1.0f;               ///< 1/sqrt(head_dim)
};

/** Synthesize one instance of @p cfg (parallel, bit-deterministic). */
LongRetrievalCase makeLongRetrieval(const LongRetrievalConfig &cfg);

/**
 * Fraction of rows of @p out (seq_len x head_dim attention output)
 * whose argmax payload channel matches the row's target needle.
 */
double needleRecall(const LongRetrievalCase &c, const Matrix &out);

} // namespace dota
