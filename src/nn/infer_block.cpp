/**
 * @file
 * Implementation of the inference block step.
 */
#include "nn/infer_block.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/quant.hpp"
#include "tensor/rows_attention.hpp"

namespace dota {

namespace {

/**
 * Attention of the new rows (q/k/v, q_len x d) of one block against
 * its cache, after appending k/v there; returns the concatenated head
 * outputs z (q_len x d). Every head runs the row kernel
 * (tensor/rows_attention.hpp) against the cache rows in place.
 */
Matrix
attend(MultiHeadAttention &attn, const Matrix &q, const Matrix &k,
       const Matrix &v, const BlockStep &st)
{
    const Int8BlockPlan *bp = st.plan;
    AttentionHook *hook = st.hook;
    const size_t n = q.rows(), d = q.cols();
    const size_t heads = attn.heads(), dh = attn.headDim();
    const size_t layer = attn.layer();
    const bool causal = attn.causal();

    if (bp)
        st.int8_cache->append(k, v, heads, bp->k_scale, bp->v_scale);
    else
        st.cache->append(k, v);
    const size_t t = bp ? st.int8_cache->len : st.cache->length();
    DOTA_ASSERT(!hook || t == n,
                "a hooked block step needs an empty cache (hooks see "
                "whole sequences), got {} cached positions", t - n);

    const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(dh));
    const U8Tensor qq = bp ? quantizeU8(q, bp->q_scale) : U8Tensor();
    Matrix z(n, d);
    for (size_t h = 0; h < heads; ++h) {
        // Kept keys: the hook mask's rows (a hook mask replaces the
        // causal bound, as in the fp layer), the exact top-k of the
        // retention policy, or every key the causal bound shows.
        SparseMask mask;
        if (hook) {
            hook->observeQK(layer, h, attn.headSlice(q, h),
                            attn.headSlice(k, h));
            mask = hook->selectSparseMask(layer, h, causal);
        } else if (!bp && st.retention < 1.0) {
            mask = topScoresMask(q, st.cache->k, h * dh, dh, causal,
                                 inv_sqrt_dk, st.retention);
        }
        const SparseMask *keep = mask.empty() ? nullptr : &mask;
        if (bp) {
            const Int8KvCache &c = *st.int8_cache;
            int8RowsAttention(qq,
                              {c.k_codes.data(), c.v_codes.data(),
                               c.k_head_sums.data(), t, heads},
                              h, bp->softmax,
                              bp->softmax.probScale() * bp->v_scale, z,
                              keep, causal);
        } else {
            rowsAttention(q, st.cache->k, st.cache->v, h * dh, dh, z, keep,
                          causal, inv_sqrt_dk);
        }
        if (hook && hook->wantsFullScores()) {
            // Full raw S (dequantized on the int8 path) for hooks that
            // keep an estimation loss; the cache holds exactly k here.
            const Matrix qh = attn.headSlice(q, h), kh = attn.headSlice(k, h);
            hook->observeScores(
                layer, h,
                bp ? int8MatmulBT(quantizeU8(qh, bp->q_scale),
                                  quantizeS8(kh, bp->k_scale))
                   : matmulBT(qh, kh));
        }
    }
    return z;
}

} // namespace

Matrix
inferBlock(EncoderBlock &blk, const Matrix &x, const BlockStep &step)
{
    MultiHeadAttention &attn = blk.attention();
    const Int8BlockPlan *bp = step.plan;
    DOTA_ASSERT(bp ? step.int8_cache != nullptr : step.cache != nullptr,
                "an {} block step needs its KV cache", bp ? "int8" : "fp32");
    const auto observe = [&](float Int8LayerRanges::*site,
                             const Matrix &m) {
        if (step.ranges)
            step.ranges->*site =
                std::max(step.ranges->*site, maxAbsFinite(m));
    };

    observe(&Int8LayerRanges::x, x);
    Matrix q, k, v;
    if (bp) {
        const U8Tensor xq = quantizeU8(x, bp->x_scale);
        q = int8MatmulBT(xq, bp->wq);
        k = int8MatmulBT(xq, bp->wk);
        v = int8MatmulBT(xq, bp->wv);
    } else {
        q = matmul(x, attn.wq());
        k = matmul(x, attn.wk());
        v = matmul(x, attn.wv());
    }
    observe(&Int8LayerRanges::q, q);
    observe(&Int8LayerRanges::k, k);
    observe(&Int8LayerRanges::v, v);
    if (step.hook)
        step.hook->beginLayer(attn.layer(), x);
    const Matrix z = attend(attn, q, k, v, step);
    observe(&Int8LayerRanges::z, z);

    // The other GEMM sites: fp32 in * W (+ b), or in requantized onto
    // the site's calibrated u8 grid against the plan's s8 W^T codes.
    const auto gemm = [bp](const Matrix &in, const Matrix &w,
                           const Matrix *bias,
                           Int8Tensor Int8BlockPlan::*codes,
                           float Int8BlockPlan::*in_scale) {
        if (bp)
            return int8MatmulBT(quantizeU8(in, bp->*in_scale), bp->*codes,
                                bias);
        Matrix y = matmul(in, w);
        if (bias)
            y = addRowBroadcast(y, *bias);
        return y;
    };
    const Matrix a = gemm(z, attn.wo(), nullptr, &Int8BlockPlan::wo,
                          &Int8BlockPlan::z_scale);
    Matrix mean, rstd;
    const Matrix h1 = layerNorm(add(x, a), blk.ln1().gamma(),
                                blk.ln1().beta(), mean, rstd);
    observe(&Int8LayerRanges::h1, h1);
    const Matrix pre =
        gemm(h1, blk.fc1().weight().value, &blk.fc1().bias().value,
             &Int8BlockPlan::fc1, &Int8BlockPlan::h1_scale);
    const Matrix hidden =
        blk.activation() == Activation::ReLU ? relu(pre) : gelu(pre);
    observe(&Int8LayerRanges::hidden, hidden);
    const Matrix f =
        gemm(hidden, blk.fc2().weight().value, &blk.fc2().bias().value,
             &Int8BlockPlan::fc2, &Int8BlockPlan::hidden_scale);
    return layerNorm(add(h1, f), blk.ln2().gamma(), blk.ln2().beta(), mean,
                     rstd);
}

} // namespace dota
