/**
 * @file
 * Bit-exact functional model of the multi-precision PE (Figure 7).
 *
 * The RMMU PE builds high-precision multipliers out of INT2 sub-
 * multipliers: each operand is split into 2-bit digits, every digit pair
 * is multiplied by one INT2 unit, and the partial products are shifted
 * and accumulated (Figure 7c shows the FX4 = 4 x INT2 case). In INT2
 * mode the same four units retire four independent MACs per cycle
 * against pre-stored (input-stationary) weights.
 *
 * This model reproduces the composition *digit by digit* so the test
 * suite can verify — exhaustively for 4- and partially for 8-bit
 * operands — that the composed datapath equals a reference multiply,
 * and that the throughput accounting of rmmuMacsPerPe() follows from
 * the unit counts.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/quant.hpp"

namespace dota {

/**
 * The INT2 unit cell: signed 2-bit x signed 2-bit -> signed 4-bit.
 * Operands must be in [-2, 1].
 */
int8_t int2Multiply(int8_t a, int8_t b);

/**
 * Compose a signed @p bits x @p bits multiply from INT2 unit cells,
 * exactly as the shift/accumulate network of Figure 7(c) does:
 * operands are split into one signed top digit and unsigned lower
 * digits (radix-4 Booth-free decomposition), all digit pairs multiply
 * on INT2-cell-sized hardware, and partial products accumulate with
 * their shifts.
 *
 * @param a, b   signed operands in the @p bits range
 * @param bits   4, 8, or 16
 * @param[out] unit_ops  number of INT2-cell operations consumed
 *                       (optional; (bits/2)^2 when provided)
 */
int64_t composedMultiply(int32_t a, int32_t b, int bits,
                         size_t *unit_ops = nullptr);

/**
 * One PE in a given precision mode: a multiply-accumulate register plus
 * the throughput bookkeeping of the mode (how many independent MACs the
 * (bits=16)/2-digit cell array retires per cycle).
 */
class MultiPrecisionPe
{
  public:
    explicit MultiPrecisionPe(Precision mode) : mode_(mode) {}

    /** Independent MACs this PE retires per cycle in this mode. */
    size_t macsPerCycle() const;

    /**
     * Execute one cycle: consume up to macsPerCycle() operand pairs and
     * accumulate into the PSUM register. Fewer pairs leave unit cells
     * idle (utilization accounting). Operand values must fit the mode.
     */
    void cycle(const std::vector<std::pair<int32_t, int32_t>> &pairs);

    int64_t psum() const { return psum_; }
    void reset() { psum_ = 0; }

    uint64_t cyclesElapsed() const { return cycles_; }

    /** Fraction of INT2 unit-cell slots doing useful work so far. */
    double utilization() const;

    Precision mode() const { return mode_; }

  private:
    Precision mode_;
    int64_t psum_ = 0;
    uint64_t cycles_ = 0;
    uint64_t unit_ops_ = 0;
};

} // namespace dota
