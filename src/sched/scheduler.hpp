/**
 * @file
 * Key/value issue schedulers for the Token-Parallel dataflow.
 *
 * Three policies, matching Figures 8/9 of the paper:
 *
 *  - RowByRowScheduler: prior work's dataflow — one query at a time, no
 *    sharing; every connection loads its key (Figure 8 top row).
 *  - InOrderScheduler: token parallel, left-to-right key order per query;
 *    keys shared within a round but locality across rounds is broken
 *    (Figure 9, "w/o Out-of-order Execution").
 *  - LocalityAwareScheduler: Algorithm 1 — out-of-order issue from ID
 *    buffers keyed by query bit-mask, most-shared keys first, complement
 *    queries served from their least-shared remaining keys. This is the
 *    hardware Scheduler of Figure 10.
 */
#pragma once

#include "sched/schedule.hpp"
#include "tensor/sparse_mask.hpp"

namespace dota {

/** Common interface: schedule one group or a whole mask. */
class Scheduler
{
  public:
    explicit Scheduler(size_t parallelism) : parallelism_(parallelism) {}
    virtual ~Scheduler() = default;

    /**
     * Schedule rows [base, base + parallelism) of @p mask (clamped to the
     * mask's row count).
     */
    virtual GroupSchedule scheduleGroup(const SparseMask &mask,
                                        size_t base) const = 0;

    size_t parallelism() const { return parallelism_; }

  protected:
    size_t parallelism_;
};

/** Prior work: query-serial processing, no key sharing. */
class RowByRowScheduler : public Scheduler
{
  public:
    RowByRowScheduler() : Scheduler(1) {}
    GroupSchedule scheduleGroup(const SparseMask &mask,
                                size_t base) const override;
};

/** Token-parallel, in-order (left-to-right) key issue. */
class InOrderScheduler : public Scheduler
{
  public:
    explicit InOrderScheduler(size_t parallelism)
        : Scheduler(parallelism)
    {}
    GroupSchedule scheduleGroup(const SparseMask &mask,
                                size_t base) const override;
};

/** Algorithm 1: locality-aware out-of-order scheduling. */
class LocalityAwareScheduler : public Scheduler
{
  public:
    /**
     * @param parallelism  T; the hardware Scheduler needs 2^T - 1 ID
     *                     buffers (Figure 15's right axis)
     */
    explicit LocalityAwareScheduler(size_t parallelism)
        : Scheduler(parallelism)
    {
        DOTA_ASSERT(parallelism >= 1 && parallelism <= 16,
                    "parallelism {} out of [1, 16]", parallelism);
    }

    GroupSchedule scheduleGroup(const SparseMask &mask,
                                size_t base) const override;

    /** ID buffers the hardware needs for this T (2^T - 1). */
    size_t bufferCount() const { return (size_t{1} << parallelism_) - 1; }
};

} // namespace dota
