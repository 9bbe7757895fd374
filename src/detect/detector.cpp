/**
 * @file
 * Implementation of the DOTA detector.
 */
#include "detect/detector.hpp"

#include <cmath>

#include "common/thread_pool.hpp"
#include "tensor/gemm_kernels.hpp"

namespace dota {

DotaDetector::DotaDetector(const TransformerConfig &model_cfg,
                           DetectorConfig cfg)
    : model_cfg_(model_cfg), cfg_(cfg)
{
    const size_t head_dim = model_cfg_.headDim();
    k_ = std::max<size_t>(
        1, static_cast<size_t>(std::floor(
               cfg_.sigma * static_cast<double>(head_dim))));
    Rng rng(cfg_.seed);
    p_ = sparseRandomProjection(model_cfg_.dim, k_, rng);

    const size_t slots = model_cfg_.layers * model_cfg_.heads;
    wq_.reserve(slots);
    wk_.reserve(slots);
    for (size_t s = 0; s < slots; ++s) {
        // Near-identity init: the estimate starts as the projected inner
        // product, which is already correlated with S.
        Matrix init_q = Matrix::identity(k_);
        Matrix init_k = Matrix::identity(k_);
        Matrix noise_q = Matrix::randomNormal(k_, k_, rng, 0.0f, 0.05f);
        Matrix noise_k = Matrix::randomNormal(k_, k_, rng, 0.0f, 0.05f);
        wq_.emplace_back(format("det.wq{}", s), add(init_q, noise_q));
        wk_.emplace_back(format("det.wk{}", s), add(init_k, noise_k));
    }
    qt_.resize(slots);
    kt_.resize(slots);
    diff_.resize(slots);
}

size_t
DotaDetector::headIndex(size_t layer, size_t head) const
{
    DOTA_ASSERT(layer < model_cfg_.layers && head < model_cfg_.heads,
                "detector slot ({}, {}) out of range", layer, head);
    return layer * model_cfg_.heads + head;
}

size_t
DotaDetector::keepCount(size_t n) const
{
    return dota::keepCount(cfg_.retention, n);
}

Matrix
DotaDetector::quantizedProduct(const Matrix &xp, const Matrix &w) const
{
    if (!cfg_.quantize)
        return matmul(xp, w);
    // Operands at cfg_.bits; the product is re-quantized at double width,
    // the representation the RMMU carries into the S~ GEMM (Section 5.5).
    const Matrix prod = matmul(xp, fakeQuant(w, cfg_.bits));
    return fakeQuant(prod, std::min(16, 2 * cfg_.bits));
}

void
DotaDetector::beginLayer(size_t layer, const Matrix &x)
{
    current_layer_ = layer;
    xp_ = matmul(x, p_);
    xp_q_ = cfg_.quantize ? fakeQuant(xp_, cfg_.bits) : xp_;
}

size_t
DotaDetector::projectHead(size_t layer, size_t head)
{
    const size_t slot = headIndex(layer, head);
    qt_[slot] = quantizedProduct(xp_q_, wq_[slot].value);
    kt_[slot] = quantizedProduct(xp_q_, wk_[slot].value);
    return slot;
}

Matrix
DotaDetector::selectMask(size_t layer, size_t head, bool causal)
{
    return selectSparseMask(layer, head, causal).toDense();
}

SparseMask
DotaDetector::selectSparseMask(size_t layer, size_t head, bool causal)
{
    DOTA_ASSERT(layer == current_layer_,
                "mask selection for layer {} but beginLayer saw {}", layer,
                current_layer_);
    const size_t slot = projectHead(layer, head);
    if (!cfg_.apply_mask)
        return {}; // warmup: estimate is trained but attention stays dense

    // S~ is never built. Each tile of kTileRows query rows is one
    // parallelFor chunk; each of its rows estimates only the keys it can
    // see (the causal prefix) against K~ transposed (k x n, 8 keys per
    // vector), with the dot-family contract (DESIGN.md §11) that gives
    // the bits of the full Q~K~^T, and selects straight into its CSR row.
    const Matrix &qt = qt_[slot];
    const Matrix ktt = transpose(kt_[slot]);
    const size_t n = qt.rows();
    const size_t keep = keepCount(n);
    const GemmKernelTable &kern = activeGemmKernels();
    SparseMask mask(n, n);
    const size_t tiles = (n + kTileRows - 1) / kTileRows;
    parallelFor(0, tiles, 1, [&](size_t t0, size_t t1) {
        std::vector<float> est(n);
        for (size_t i = t0 * kTileRows; i < std::min(n, t1 * kTileRows);
             ++i) {
            const size_t visible = causal ? i + 1 : n;
            kern.keysTScoreRow(qt.row(i), ktt.data(), n, ktt.rows(),
                               visible, est.data());
            std::vector<uint32_t> ids;
            if (cfg_.use_threshold) {
                for (size_t j = 0; j < visible; ++j)
                    if (est[j] >= cfg_.threshold)
                        ids.push_back(static_cast<uint32_t>(j));
                // Guarantee progress: a causal row keeps its diagonal.
                if (causal && (ids.empty() || ids.back() != i))
                    ids.push_back(static_cast<uint32_t>(i));
            } else {
                ids.resize(std::min(keep, visible));
                topkRow(est.data(), visible, keep, ids.data());
            }
            mask.setSortedRow(i, std::move(ids));
        }
    });
    return mask;
}

void
DotaDetector::observeScores(size_t layer, size_t head,
                            const Matrix &s_true)
{
    const size_t slot = headIndex(layer, head);
    DOTA_ASSERT(!qt_[slot].empty(), "observeScores before selectMask");
    const Matrix est = lastEstimate(layer, head);
    diff_[slot] = sub(est, s_true); // S~ - S
    const double loss = mse(est, s_true);
    mse_sum_ += loss;
    ++mse_count_;

    if (!cfg_.train)
        return;

    // Detector parameter gradients (straight-through across quantizers):
    //   L = lambda * mean (S~ - S)^2,  S~ = Q~ K~^T
    //   dS~ = coef * (S~ - S); dQ~ = dS~ K~; dK~ = dS~^T Q~
    //   dW~q = (XP)^T dQ~;     dW~k = (XP)^T dK~
    // Computed here (forward time) so the detector can also be trained
    // without a model backward pass (warmup on a frozen model).
    const Matrix &d = diff_[slot];
    const float coef = static_cast<float>(
        2.0 * cfg_.lambda / static_cast<double>(d.size()));
    const Matrix ds_est = scale(d, coef);
    const Matrix dqt = matmul(ds_est, kt_[slot]);
    const Matrix dkt = matmulAT(ds_est, qt_[slot]);
    const Matrix dwq = matmulAT(xp_q_, dqt);
    const Matrix dwk = matmulAT(xp_q_, dkt);
    for (size_t i = 0; i < dwq.size(); ++i) {
        wq_[slot].grad.data()[i] += dwq.data()[i];
        wk_[slot].grad.data()[i] += dwk.data()[i];
    }
}

Matrix
DotaDetector::scoreGradient(size_t layer, size_t head)
{
    if (!cfg_.train || !cfg_.inject_model_grad)
        return {};
    const size_t slot = headIndex(layer, head);
    DOTA_ASSERT(!diff_[slot].empty(), "scoreGradient before observeScores");
    const Matrix &d = diff_[slot];
    const float coef = static_cast<float>(
        2.0 * cfg_.lambda / static_cast<double>(d.size()));
    // Gradient injected into the model: dL/dS = -coef * (S~ - S).
    return scale(d, -coef);
}

void
DotaDetector::collectParams(std::vector<Parameter *> &out)
{
    for (auto &p : wq_)
        out.push_back(&p);
    for (auto &p : wk_)
        out.push_back(&p);
}

double
DotaDetector::consumeMseLoss()
{
    const double mean =
        mse_count_ ? mse_sum_ / static_cast<double>(mse_count_) : 0.0;
    mse_sum_ = 0.0;
    mse_count_ = 0;
    return mean;
}

Matrix
DotaDetector::lastEstimate(size_t layer, size_t head) const
{
    const size_t slot = headIndex(layer, head);
    return matmulBT(qt_[slot], kt_[slot]);
}

Matrix
DotaDetector::estimateScores(size_t layer, size_t head, const Matrix &x)
{
    beginLayer(layer, x);
    projectHead(layer, head);
    return lastEstimate(layer, head);
}

} // namespace dota
