/**
 * @file
 * Numerical guard rails for the training loops.
 *
 * Real training fleets hit NaN/Inf blow-ups — bad batches, fp32
 * overflow, bit flips — and an unguarded optimizer step propagates the
 * poison into every weight, wasting the run. The StepGuard inspects the
 * reduced batch loss and gradients *after* the fixed-order reduction
 * and *before* the optimizer update, so its verdict is a pure function
 * of deterministic values and therefore identical at any DOTA_THREADS.
 *
 * Policy (skip-step-and-rollback): a non-finite loss or gradient
 * withholds the optimizer update entirely — parameters and Adam moments
 * keep their pre-step values (nothing to roll back because nothing was
 * applied) and training continues with the next batch. A long run of
 * consecutive skips means the model state itself is poisoned (e.g. NaN
 * weights, which no skip can heal) and aborts loudly. Gradient-norm
 * clipping lives in Adam (AdamConfig::clip_norm); the guard counts
 * clipped steps so reports surface how often the rail engaged.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nn/adam.hpp"
#include "nn/param.hpp"

namespace dota {

/** Guard-rail policy knobs. */
struct GuardRailConfig
{
    /**
     * Abort (fatal) after this many *consecutive* skipped steps: the
     * model state is unrecoverable by skipping alone.
     */
    size_t max_consecutive_skips = 25;
};

/** Counters of every guard-rail intervention (checkpointed). */
struct GuardRailStats
{
    uint64_t nonfinite_loss_steps = 0; ///< batch loss was NaN/Inf
    uint64_t nonfinite_grad_steps = 0; ///< a reduced gradient was NaN/Inf
    uint64_t skipped_steps = 0;        ///< optimizer updates withheld
    uint64_t clipped_steps = 0;        ///< gradient-norm clip engaged
    uint64_t consecutive_skips = 0;    ///< current skip streak
};

/** Per-run guard instance owned by a trainer. */
class StepGuard
{
  public:
    explicit StepGuard(GuardRailConfig cfg) : cfg_(cfg) {}

    /**
     * Decide the fate of the step whose reduced batch loss is @p loss
     * and whose reduced gradients live in @p params. Returns true when
     * the optimizer update must be skipped. fatal() when the
     * consecutive-skip limit is exceeded.
     */
    bool shouldSkip(double loss, const std::vector<Parameter *> &params);

    /** Record post-update facts (clip counter) from the optimizer. */
    void
    afterStep(const Adam &opt)
    {
        if (opt.lastStepClipped())
            ++stats_.clipped_steps;
    }

    const GuardRailStats &stats() const { return stats_; }

    /** Restore counters from a checkpoint (bit-identical resume). */
    void restore(const GuardRailStats &stats) { stats_ = stats; }

  private:
    GuardRailConfig cfg_;
    GuardRailStats stats_;
};

} // namespace dota
