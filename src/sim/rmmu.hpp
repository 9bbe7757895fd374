/**
 * @file
 * Cycle model of the Reconfigurable Matrix Multiplication Unit
 * (Section 4.2, Figure 7).
 *
 * The RMMU is a 2-D array of multi-precision MAC PEs. Each PE retires one
 * FX16 MAC per cycle, or — using its four INT2 sub-multipliers as an
 * input-stationary micro-MAC — 4x at INT8, 16x at INT4 and 64x at INT2
 * (quadratic throughput scaling with precision, Figure 7c). GEMMs are
 * executed with output-stationary tiling: each pe_rows x pe_cols output
 * tile accumulates over the reduction dimension.
 */
#pragma once

#include "sim/hw_config.hpp"
#include "tensor/quant.hpp"

namespace dota {

/** Tile-granular RMMU model. */
class Rmmu
{
  public:
    explicit Rmmu(RmmuConfig cfg) : cfg_(cfg) {}

    /** MACs retired per cycle at @p p with the whole array configured. */
    uint64_t
    macsPerCycle(Precision p) const
    {
        return static_cast<uint64_t>(cfg_.pes()) *
               static_cast<uint64_t>(rmmuMacsPerPe(p));
    }

    /**
     * Cycles of a tiled (m x k) * (k x n) GEMM at precision @p p,
     * including edge-tile underutilization.
     */
    uint64_t gemmCycles(uint64_t m, uint64_t k, uint64_t n,
                        Precision p) const;

    /**
     * Cycles to execute sparse-attention rounds in Token-Parallel mode:
     * every round occupies T dot-product slots of length @p head_dim
     * (idle slots from imbalance are busy-but-wasted), at FX16.
     */
    uint64_t sparseAttentionCycles(uint64_t rounds, size_t t,
                                   size_t head_dim) const;

    const RmmuConfig &config() const { return cfg_; }

  private:
    RmmuConfig cfg_;
};

} // namespace dota
