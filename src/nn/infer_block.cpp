/**
 * @file
 * Implementation of the inference block step.
 */
#include "nn/infer_block.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/gemm_kernels.hpp"
#include "tensor/quant.hpp"
#include "tensor/topk.hpp"

namespace dota {

namespace {

/**
 * Keep the top max(1, round(retention * n)) of the scores s[0..n) —
 * topkRow's rule, as topkMask uses — compacting @p cols and @p s in
 * ascending key order. Returns the kept count.
 */
size_t
keepTopK(std::vector<uint32_t> &cols, std::vector<float> &s, size_t n,
         double retention)
{
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(
               std::llround(retention * static_cast<double>(n))));
    if (keep >= n)
        return n;
    std::vector<uint32_t> idx(keep);
    topkRow(s.data(), n, keep, idx.data());
    for (size_t m = 0; m < keep; ++m) { // idx[m] >= m: in place
        cols[m] = cols[idx[m]];
        s[m] = s[idx[m]];
    }
    return keep;
}

/**
 * Attention of the new rows (q/k/v, q_len x d) of one block against
 * its cache, after appending k/v there; returns the concatenated head
 * outputs z (q_len x d).
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

    size_t t0;
    if (bp) {
        t0 = st.int8_cache->len;
        st.int8_cache->append(k, v, heads, bp->k_scale, bp->v_scale);
    } else {
        t0 = st.cache->length();
        st.cache->append(k, v);
    }
    const size_t t = t0 + n;
    DOTA_ASSERT(!hook || t0 == 0,
                "a hooked block step needs an empty cache (hooks see "
                "whole sequences), got {} cached positions", t0);

    const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(dh));
    const auto &kt = activeGemmKernels();
    const U8Tensor qq = bp ? quantizeU8(q, bp->q_scale) : U8Tensor();

    // Raw score of new row i against cached key j in head h: the dense
    // path's S element (fp32), or the exact compensated s32 sum (int8).
    const auto fpScore = [&](size_t i, size_t j, size_t h) {
        return kt.dot(q.row(i) + h * dh, st.cache->k.row(j) + h * dh, dh);
    };
    const auto int8Score = [&](size_t i, size_t j, size_t h) {
        const Int8KvCache &c = *st.int8_cache;
        return int8DotCompensated(qq.row(i) + h * dh, qq.zero_point,
                                  c.k_codes.data() + j * d + h * dh,
                                  c.k_head_sums[j * heads + h], dh);
    };

    Matrix z(n, d);
    std::vector<uint32_t> cols(t);           // kept keys of one row
    std::vector<float> p(bp ? 0 : t);        // fp32 scores, then probs
    std::vector<int32_t> raw(bp ? t : 0);    // int8 scores
    std::vector<uint8_t> probs(bp ? t : 0);  // int8 probabilities
    std::vector<int32_t> acc(bp ? dh : 0);   // int8 A*V sums
    for (size_t h = 0; h < heads; ++h) {
        const size_t off = h * dh;
        SparseMask mask;
        if (hook) {
            hook->observeQK(layer, h, attn.headSlice(q, h),
                            attn.headSlice(k, h));
            mask = hook->selectSparseMask(layer, h, causal);
        }
        for (size_t i = 0; i < n; ++i) {
            float *zrow = z.row(i) + off;
            // Kept keys, ascending: the hook mask's row (a hook mask
            // replaces the causal bound, as in the fp layer), otherwise
            // every key this row can see.
            size_t nk = 0;
            if (!mask.empty()) {
                const std::vector<uint32_t> &ids = mask.row(i);
                nk = ids.size();
                std::copy(ids.begin(), ids.end(), cols.begin());
            } else {
                nk = causal ? t0 + i + 1 : t;
                std::iota(cols.begin(), cols.begin() + nk, 0u);
            }

            if (bp) {
                for (size_t m = 0; m < nk; ++m)
                    raw[m] = int8Score(i, cols[m], h);
                bp->softmax.softmaxRow(raw.data(), nk, nullptr,
                                       probs.data());
                std::fill(acc.begin(), acc.end(), 0);
                for (size_t m = 0; m < nk; ++m) {
                    const int32_t w = probs[m];
                    if (w == 0)
                        continue;
                    const int8_t *vrow =
                        st.int8_cache->v_codes.data() + cols[m] * d + off;
                    for (size_t c = 0; c < dh; ++c)
                        acc[c] += w * static_cast<int32_t>(vrow[c]);
                }
                const float out_scale =
                    bp->softmax.probScale() * bp->v_scale;
                for (size_t c = 0; c < dh; ++c)
                    zrow[c] = static_cast<float>(acc[c]) * out_scale;
                continue;
            }

            KvCache &c = *st.cache;
            for (size_t m = 0; m < nk; ++m)
                p[m] = fpScore(i, cols[m], h) * inv_sqrt_dk;
            if (st.retention < 1.0)
                nk = keepTopK(cols, p, nk, st.retention);
            softmaxInPlace(p.data(), nk);
            for (size_t m = 0; m < nk; ++m)
                if (p[m] != 0.0f)
                    c.mass[cols[m]] += p[m]; // evictWeak()'s signal
            kt.sparseAvRow(p.data(), cols.data(), nk, c.v.data() + off, d,
                           dh, zrow);
        }
        if (hook && hook->wantsFullScores()) {
            // Full raw S (dequantized on the int8 path) for hooks that
            // keep an estimation loss.
            Matrix s(n, t);
            const float ss = bp ? bp->q_scale * bp->k_scale : 0.0f;
            for (size_t i = 0; i < n; ++i)
                for (size_t j = 0; j < t; ++j)
                    s(i, j) = bp ? static_cast<float>(int8Score(i, j, h)) * ss
                                 : fpScore(i, j, h);
            hook->observeScores(layer, h, s);
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
