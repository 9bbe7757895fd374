/**
 * @file
 * Implementation of the tiled streaming attention kernel.
 *
 * Parallelization mirrors the sparse kernels in sparse_ops.cpp: query
 * rows are partitioned into chunks and every row is produced by exactly
 * one chunk in a fixed ascending tile order, so results are
 * bit-identical for every DOTA_THREADS value. The serial/parallel
 * crossover reuses the measured GEMM MAC threshold with the work
 * estimated as kept-connections * head-dim.
 */
#include "tensor/streaming_attention.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/thread_pool.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"

namespace dota {

namespace {

/** Same chunking policy as the sparse kernels (sparse_ops.cpp). */
size_t
rowGrain(size_t rows)
{
    const size_t conc = ThreadPool::globalConcurrency();
    return std::max<size_t>(1, rows / (4 * conc));
}

/**
 * Fold the keys listed in cols[0..cnt) into one query row's running
 * state. Scores and per-tile probabilities live in the caller's
 * tile-sized scratch; `first` distinguishes the initial contributing
 * tile (no rescale of an all-zero accumulator).
 */
struct RowState
{
    float m = -std::numeric_limits<float>::infinity();
    double l = 0.0;
    bool first = true;
};

void
foldTile(const float *qrow, const Matrix &k, const Matrix &v,
         const uint32_t *cols, size_t cnt, float scale,
         const GemmKernelTable &kt, RowState &st, float *s, float *tmp,
         float *acc)
{
    // Scores at kept coordinates: dot-family contract, one rounding for
    // the scaling — identical per-element numerics to the CSR path.
    float tile_max = -std::numeric_limits<float>::infinity();
    for (size_t i = 0; i < cnt; ++i) {
        s[i] = kt.dot(qrow, k.row(cols[i]), k.cols()) * scale;
        tile_max = std::max(tile_max, s[i]);
    }
    const float m_new = std::max(st.m, tile_max);

    // exp terms and their double-accumulated sum, ascending key order.
    double tile_sum = 0.0;
    for (size_t i = 0; i < cnt; ++i) {
        s[i] = std::exp(s[i] - m_new);
        tile_sum += s[i];
    }

    // One tile of probabilities against V (broadcast-FMA contract).
    kt.sparseAvRow(s, cols, cnt, v.data(), v.cols(), v.cols(), tmp);

    const size_t d = v.cols();
    if (st.first) {
        std::copy(tmp, tmp + d, acc);
        st.l = tile_sum;
        st.first = false;
    } else {
        const float corr = std::exp(st.m - m_new);
        for (size_t c = 0; c < d; ++c)
            acc[c] = std::fma(corr, acc[c], tmp[c]);
        st.l = st.l * static_cast<double>(corr) + tile_sum;
    }
    st.m = m_new;
}

} // namespace

Matrix
streamingAttention(const Matrix &q, const Matrix &k, const Matrix &v,
                   const SparseMask *mask, bool causal, float scale,
                   size_t tile)
{
    DOTA_ASSERT(q.cols() == k.cols(), "streamingAttention {} vs {} keys",
                q.shapeStr(), k.shapeStr());
    DOTA_ASSERT(k.rows() == v.rows(), "streamingAttention {} keys vs {}",
                k.shapeStr(), v.shapeStr());
    if (mask) {
        DOTA_ASSERT(mask->rows() == q.rows() && mask->cols() == k.rows(),
                    "streamingAttention mask {}x{} over {}x{} scores",
                    mask->rows(), mask->cols(), q.rows(), k.rows());
    }
    const size_t n = q.rows();
    const size_t m = k.rows();
    const size_t d = v.cols();
    tile = std::max<size_t>(1, tile);

    Matrix out(n, d);
    if (n == 0 || m == 0)
        return out;
    const auto &kt = activeGemmKernels();

    auto rowBlock = [&](size_t r0, size_t r1) {
        // Per-chunk scratch: one KV tile of scores + ids, one d-wide
        // tile context and the d-wide accumulator — the whole transient
        // footprint of this thread (streamingAttnScratchBytes()).
        std::vector<uint32_t> cols(tile);
        std::vector<float> s(tile);
        std::vector<float> tmp(d);
        std::vector<float> acc(d);
        for (size_t r = r0; r < r1; ++r) {
            const size_t bound = causal ? std::min(m, r + 1) : m;
            const std::vector<uint32_t> *ids =
                mask ? &mask->row(r) : nullptr;
            size_t cursor = 0; // walks ids across tiles (ascending)
            RowState st;
            for (size_t t0 = 0; t0 < bound; t0 += tile) {
                const size_t t1 = std::min(bound, t0 + tile);
                size_t cnt = 0;
                if (ids) {
                    while (cursor < ids->size() && (*ids)[cursor] < t1) {
                        const uint32_t c = (*ids)[cursor++];
                        if (c >= t0) // ids below t0 were already folded
                            cols[cnt++] = c;
                    }
                } else {
                    for (size_t c = t0; c < t1; ++c)
                        cols[cnt++] = static_cast<uint32_t>(c);
                }
                if (cnt == 0)
                    continue; // omitted tile: no memory, no work
                foldTile(q.row(r), k, v, cols.data(), cnt, scale, kt, st,
                         s.data(), tmp.data(), acc.data());
            }
            float *orow = out.row(r);
            if (st.first)
                continue; // no kept keys: the dense path's all-zero row
            const float inv = static_cast<float>(1.0 / st.l);
            for (size_t c = 0; c < d; ++c)
                orow[c] = acc[c] * inv;
        }
    };

    const uint64_t kept =
        mask ? mask->nnz()
             : (causal ? static_cast<uint64_t>(m) * (m + 1) / 2
                       : static_cast<uint64_t>(n) * m);
    const uint64_t macs = kept * q.cols();
    if (macs < gemmParallelMacThreshold())
        rowBlock(0, n);
    else
        parallelFor(0, n, rowGrain(n), rowBlock);
    return out;
}

void
streamingAttentionQuery(const float *qrow, const Matrix &k, const Matrix &v,
                        size_t off, size_t dh, float scale, float *out,
                        std::vector<float> *probs, size_t tile)
{
    DOTA_ASSERT(k.rows() == v.rows(), "streamingAttentionQuery {} vs {}",
                k.shapeStr(), v.shapeStr());
    DOTA_ASSERT(off + dh <= k.cols(), "head slice [{} .. {}) out of {}",
                off, off + dh, k.cols());
    const size_t t = k.rows();
    tile = std::max<size_t>(1, tile);
    const auto &kt = activeGemmKernels();

    std::vector<uint32_t> cols(tile);
    std::vector<float> s(tile);
    std::vector<float> tmp(dh);
    std::vector<float> acc(dh, 0.0f);
    float m = -std::numeric_limits<float>::infinity();
    double l = 0.0;
    bool first = true;

    for (size_t t0 = 0; t0 < t; t0 += tile) {
        const size_t t1 = std::min(t, t0 + tile);
        const size_t cnt = t1 - t0;
        std::iota(cols.begin(), cols.begin() + cnt,
                  static_cast<uint32_t>(t0));
        float tile_max = -std::numeric_limits<float>::infinity();
        for (size_t i = 0; i < cnt; ++i) {
            s[i] = kt.dot(qrow, k.row(t0 + i) + off, dh) * scale;
            tile_max = std::max(tile_max, s[i]);
        }
        const float m_new = std::max(m, tile_max);
        double tile_sum = 0.0;
        for (size_t i = 0; i < cnt; ++i) {
            s[i] = std::exp(s[i] - m_new);
            tile_sum += s[i];
        }
        // Strided AV fold: cache rows are dim-wide, this head is the
        // dh-slice at off.
        kt.sparseAvRow(s.data(), cols.data(), cnt, v.data() + off,
                       v.cols(), dh, tmp.data());
        if (first) {
            std::copy(tmp.begin(), tmp.end(), acc.begin());
            l = tile_sum;
            first = false;
        } else {
            const float corr = std::exp(m - m_new);
            for (size_t c = 0; c < dh; ++c)
                acc[c] = std::fma(corr, acc[c], tmp[c]);
            l = l * static_cast<double>(corr) + tile_sum;
        }
        m = m_new;
    }

    if (first || l == 0.0) {
        std::fill(out, out + dh, 0.0f);
        if (probs)
            probs->assign(t, 0.0f);
        return;
    }
    const float inv = static_cast<float>(1.0 / l);
    for (size_t c = 0; c < dh; ++c)
        out[c] = acc[c] * inv;

    // Second tile pass with the converged max/denominator: the final
    // per-position probabilities (attention-mass telemetry) without
    // ever holding more than one tile of scores.
    if (probs) {
        probs->resize(t);
        for (size_t t0 = 0; t0 < t; t0 += tile) {
            const size_t t1 = std::min(t, t0 + tile);
            for (size_t j = t0; j < t1; ++j) {
                const float sc = kt.dot(qrow, k.row(j) + off, dh) * scale;
                (*probs)[j] = std::exp(sc - m) * inv;
            }
        }
    }
}

size_t
streamingAttnScratchBytes(size_t d, size_t tile, size_t threads)
{
    const size_t per_thread = tile * (sizeof(uint32_t) + sizeof(float)) +
                              2 * d * sizeof(float);
    return std::max<size_t>(1, threads) * per_thread;
}

} // namespace dota
