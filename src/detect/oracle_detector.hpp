/**
 * @file
 * Oracle "detector": row-wise top-k on the *true* attention scores.
 *
 * This is the post-hoc omission experiment of Section 2.2 / Table 1: it
 * measures how much attention can be omitted if detection were perfect,
 * and serves as the upper bound every practical detector is compared
 * against in the test suite and benches.
 */
#pragma once

#include "nn/attention_hook.hpp"
#include "tensor/ops.hpp"
#include "tensor/topk.hpp"

namespace dota {

/** Perfect-information top-k selection hook. */
class OracleDetector : public AttentionHook
{
  public:
    explicit OracleDetector(double retention) : retention_(retention) {}

    void
    beginLayer(size_t, const Matrix &) override
    {}

    void
    observeQK(size_t, size_t, const Matrix &q, const Matrix &k) override
    {
        scores_ = matmulBT(q, k);
    }

    Matrix
    selectMask(size_t, size_t, bool causal) override
    {
        DOTA_ASSERT(!scores_.empty(), "selectMask before observeQK");
        const size_t n = scores_.rows();
        // Floors r * n where keepCount rounds; switching moves numbers.
        const size_t keep = std::max<size_t>(
            1, static_cast<size_t>(retention_ * static_cast<double>(n)));
        return causal ? topkMaskCausal(scores_, keep)
                      : topkMask(scores_, keep);
    }

    void
    observeScores(size_t, size_t, const Matrix &) override
    {}

    /** Training-free: never inspects S, so the sparse path is legal. */
    bool wantsFullScores() const override { return false; }

    Matrix
    scoreGradient(size_t, size_t) override
    {
        return {};
    }

    void setRetention(double r) { retention_ = r; }
    double retention() const { return retention_; }

  private:
    double retention_;
    Matrix scores_;
};

} // namespace dota
