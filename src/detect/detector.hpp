/**
 * @file
 * The DOTA weak-attention Detector — the paper's core algorithmic
 * contribution (Section 3).
 *
 * The detector estimates raw attention scores with a pair of low-rank,
 * low-precision linear transformations:
 *
 *     Q~, K~ = (X P) W~Q, (X P) W~K            (Eq. 4)
 *     S~     = Q~ K~^T
 *
 * where P is a fixed Achlioptas sparse random projection (d x k) and
 * W~Q / W~K are trainable k x k matrices, k = floor(sigma * head_dim).
 * Connections are kept by row-balanced top-k on S~ (the balance constraint
 * of Section 4.3) or by a preset threshold (the hardware comparator path).
 *
 * Training follows the joint optimization of Section 3.2:
 * L = L_model + lambda * L_MSE with L_MSE = mean (S - S~)^2 (Eq. 5/6).
 * The detector is installed into attention layers as an AttentionHook;
 * during the model's backward pass it (a) injects lambda * dL_MSE/dS into
 * the attention gradient (adapting the model and making S easier to
 * estimate — Section 3.3) and (b) accumulates its own parameter gradients
 * through a straight-through estimator across the quantizers.
 */
#pragma once

#include <vector>

#include "nn/attention_hook.hpp"
#include "nn/param.hpp"
#include "nn/transformer.hpp"
#include "tensor/quant.hpp"
#include "tensor/random_projection.hpp"
#include "tensor/topk.hpp"

namespace dota {

/** Detector hyper-parameters. */
struct DetectorConfig
{
    double sigma = 0.25;   ///< rank reduction: k = floor(sigma * head_dim)
    int bits = 4;          ///< detection precision for X*P and W~ (INT4);
                           ///< products Q~/K~ carry 2x the width (Sec 5.5)
    bool quantize = true;  ///< false = FP32 detection (DSE upper bound)
    double retention = 0.1;///< per-row keep fraction
    double lambda = 1.0;   ///< weight of L_MSE in the joint loss
    bool train = true;     ///< accumulate detector gradients + inject dS
    bool inject_model_grad = true; ///< pass lambda*dL_MSE/dS to the model
                                   ///< (the "joint" in joint optimization)
    bool apply_mask = true;///< false = dense attention (detector warmup)
    bool use_threshold = false; ///< threshold comparator instead of top-k
    float threshold = 0.0f;     ///< preset comparator threshold
    uint64_t seed = 17;    ///< P initialization seed
};

/** Trainable weak-attention detector (installable AttentionHook). */
class DotaDetector : public AttentionHook, public Module
{
  public:
    /**
     * @param model_cfg  shape of the transformer being instrumented
     * @param cfg        detector hyper-parameters
     */
    DotaDetector(const TransformerConfig &model_cfg, DetectorConfig cfg);

    // AttentionHook interface -------------------------------------------
    void beginLayer(size_t layer, const Matrix &x) override;
    /** The scatter of selectSparseMask() (dense 0/1, or empty). */
    Matrix selectMask(size_t layer, size_t head, bool causal) override;

    /**
     * Row-tiled selection straight into CSR rows; S~ is never built
     * (see selectSparseMask in detector.cpp and DESIGN.md §11). The
     * rows equal SparseMask::fromDense of topkMask / topkMaskCausal on
     * the full S~ (threshold mode: thresholdMask, and a causal row keeps
     * only columns <= its own plus its diagonal).
     */
    SparseMask selectSparseMask(size_t layer, size_t head,
                                bool causal) override;
    void observeScores(size_t layer, size_t head,
                       const Matrix &s_true) override;
    Matrix scoreGradient(size_t layer, size_t head) override;

    /**
     * The full S is only needed while training (L_MSE and its gradients).
     * At inference the detector's decisions come entirely from the
     * low-rank estimate, so the attention layer may omit the weak scores
     * outright — the speedup the paper's accelerator realizes in
     * hardware. Measurement code that wants inference-time L_MSE or
     * detection-quality metrics forces the dense path explicitly
     * (MultiHeadAttention::setForceDense).
     */
    bool wantsFullScores() const override { return cfg_.train; }

    // Module interface ---------------------------------------------------
    void collectParams(std::vector<Parameter *> &out) override;

    /** Mean estimation loss accumulated since the last call, then reset. */
    double consumeMseLoss();

    /**
     * Estimated score matrix S~ = Q~K~^T of the last forward for one
     * head, computed on request from the kept Q~ and K~ (n x k): the
     * same bits the selection saw.
     */
    Matrix lastEstimate(size_t layer, size_t head) const;

    /** Keep-count used for an n-token sequence under this retention. */
    size_t keepCount(size_t n) const;

    /** Reduced rank k. */
    size_t rank() const { return k_; }

    DetectorConfig &config() { return cfg_; }
    const DetectorConfig &config() const { return cfg_; }

    /**
     * Estimate scores for an externally supplied feature matrix without
     * going through a model (used by the simulator's functional path and
     * by unit tests): returns S~ for the given layer/head.
     */
    Matrix estimateScores(size_t layer, size_t head, const Matrix &x);

  private:
    /** Query rows per detection tile (one parallelFor chunk). */
    static constexpr size_t kTileRows = 64;

    size_t headIndex(size_t layer, size_t head) const;
    Matrix quantizedProduct(const Matrix &xp, const Matrix &w) const;
    /** Q~ and K~ of one head from the current layer's X*P; its slot. */
    size_t projectHead(size_t layer, size_t head);

    TransformerConfig model_cfg_;
    DetectorConfig cfg_;
    size_t k_;      ///< reduced rank
    Matrix p_;      ///< d x k sparse random projection (fixed)
    std::vector<Parameter> wq_; ///< per layer*head, k x k
    std::vector<Parameter> wk_;

    // Per-forward caches (indexed by layer*heads + head).
    Matrix xp_;              ///< X * P of the current layer
    Matrix xp_q_;            ///< quantized X * P
    size_t current_layer_ = 0;
    std::vector<Matrix> qt_;   ///< Q~ per head slot (n x k)
    std::vector<Matrix> kt_;   ///< K~ per head slot (n x k)
    std::vector<Matrix> diff_; ///< (S~ - S) per head slot

    double mse_sum_ = 0.0;
    uint64_t mse_count_ = 0;
};

} // namespace dota
