/**
 * @file
 * Dataflow analysis: memory traffic and utilization of a sparse attention
 * computation under the scheduling policies (Figures 8/9/15), plus a
 * streaming tiled dataflow for an accelerator whose score buffer holds
 * one KV tile rather than one row (DESIGN.md §13).
 */
#pragma once

#include <string>

#include "sched/scheduler.hpp"

namespace dota {

/** Default KV-tile width (keys per tile) of the StreamingTiled dataflow. */
constexpr size_t kStreamingAttnTile = 64;

/** Scheduling policy selector. */
enum class Dataflow
{
    RowByRow,
    TokenParallelInOrder,
    TokenParallelOoO,

    /**
     * Online-softmax streaming: query groups of T lanes walk the keys
     * one KV tile at a time in ascending order, issuing each kept key
     * of the tile once to the group (tile-bounded score buffer instead
     * of row-length). Tiles with no kept key are skipped entirely, and
     * every contributing tile costs one extra accumulator-rescale
     * round (the FLASH-D online-softmax recurrence). Modelled only: the
     * software kernel (tensor/rows_attention.hpp) keeps a whole score
     * row per thread and needs no recurrence.
     */
    StreamingTiled,
};

/** Human-readable dataflow name. */
std::string dataflowName(Dataflow d);

/** Aggregate dataflow statistics over a whole mask. */
struct DataflowStats
{
    uint64_t key_loads = 0;    ///< key-vector loads (SRAM reads)
    uint64_t value_loads = 0;  ///< value-vector loads (schedule is reused
                               ///< for A*V, Section 4.3)
    uint64_t rounds = 0;       ///< synchronized compute rounds
    uint64_t connections = 0;  ///< total (query, key) pairs computed
    uint64_t ideal_loads = 0;  ///< lower bound: distinct keys per group
    double utilization = 0.0;  ///< mean PE-slot utilization

    /**
     * StreamingTiled only (0 otherwise): contributing (group, tile)
     * pairs. Each costs one lock-step rescale of the group's d_h-wide
     * accumulators, charged by the accelerator's attention phase.
     */
    uint64_t tile_flushes = 0;
};

/**
 * Analyze @p mask under @p dataflow with token parallelism @p t
 * (ignored for RowByRow). @p tile is the KV-tile width of the
 * StreamingTiled dataflow (ignored by the others).
 */
DataflowStats analyzeDataflow(const SparseMask &mask, Dataflow dataflow,
                              size_t t = 4,
                              size_t tile = kStreamingAttnTile);

/** Build the worked example of Figure 8 (4 queries x 5 keys, 10 nnz). */
SparseMask figure8Mask();

/** Build the worked example of Figure 9 (4 queries x 6 keys, 12 nnz). */
SparseMask figure9Mask();

} // namespace dota
