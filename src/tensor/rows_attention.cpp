/**
 * @file
 * Implementation of the row-at-a-time attention kernel.
 *
 * Query rows take the dense GEMMs' row partition (parallelRows in
 * tensor/ops.hpp), with the work estimated as kept connections * row
 * width.
 */
#include "tensor/rows_attention.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/topk.hpp"

namespace dota {

namespace {

/**
 * The one walk over query rows: body(r, ids, cnt) for every row r of
 * @p n with its kept keys ids[0..cnt) among @p m (the header's rule).
 * @p make_body builds one chunk's body, which owns the chunk's scratch;
 * @p width is the work per kept key.
 */
template <typename MakeBody>
void
walkRows(size_t n, size_t m, size_t width, const SparseMask *mask,
         bool causal, MakeBody make_body)
{
    DOTA_ASSERT(mask ? mask->rows() == n && mask->cols() == m
                     : !causal || n <= m,
                "row kernel: {} queries over {} keys", n, m);
    auto rowBlock = [&](size_t r0, size_t r1) {
        auto body = make_body();
        std::vector<uint32_t> all(mask ? 0 : m); // ids of an unmasked row
        std::iota(all.begin(), all.end(), 0u);
        for (size_t r = r0; r < r1; ++r) {
            if (mask)
                body(r, mask->row(r).data(), mask->row(r).size());
            else
                body(r, all.data(), causal ? m - n + r + 1 : m);
        }
    };
    const uint64_t kept =
        mask ? mask->nnz()
             : static_cast<uint64_t>(n) * m -
                   (causal ? static_cast<uint64_t>(n) * (n - 1) / 2 : 0);
    parallelRows(n, kept * width, rowBlock);
}

} // namespace

void
rowsAttention(const Matrix &q, const Matrix &k, const Matrix &v, size_t off,
              size_t w, Matrix &out, const SparseMask *mask, bool causal,
              float scale)
{
    const size_t d = q.cols(), m = k.rows();
    DOTA_ASSERT(k.cols() == d && v.cols() == d && v.rows() == m &&
                    out.cols() == d && out.rows() == q.rows() && off + w <= d,
                "rowsAttention q {} k {} v {} out {}", q.shapeStr(),
                k.shapeStr(), v.shapeStr(), out.shapeStr());
    const auto &kt = activeGemmKernels();
    walkRows(q.rows(), m, w, mask, causal, [&] {
        return [&, p = std::vector<float>(m)](
                   size_t r, const uint32_t *ids, size_t cnt) mutable {
            kt.sparseScoreRow(q.row(r) + off, k.data() + off, d, w, ids,
                              cnt, p.data());
            for (size_t t = 0; t < cnt; ++t)
                p[t] *= scale;
            softmaxInPlace(p.data(), cnt);
            // No kept key: sparseAvRow writes the dense path's zero row.
            kt.sparseAvRow(p.data(), ids, cnt, v.data() + off, d, w,
                           out.row(r) + off);
        };
    });
}

Matrix
rowsAttention(const Matrix &q, const Matrix &k, const Matrix &v,
              const SparseMask *mask, bool causal, float scale)
{
    Matrix out(q.rows(), q.cols());
    rowsAttention(q, k, v, 0, q.cols(), out, mask, causal, scale);
    return out;
}

void
int8RowsAttention(const U8Tensor &q, const Int8KvRows &kv, size_t h,
                  const IntSoftmaxLut &softmax, float out_scale, Matrix &out,
                  const SparseMask *mask, bool causal)
{
    const size_t d = q.k, dh = d / kv.heads, off = h * dh;
    walkRows(q.rows, kv.m, dh, mask, causal, [&] {
        return [&, raw = std::vector<int32_t>(kv.m),
                probs = std::vector<uint8_t>(kv.m),
                acc = std::vector<int32_t>(dh)](
                   size_t r, const uint32_t *ids, size_t cnt) mutable {
            for (size_t t = 0; t < cnt; ++t)
                raw[t] = int8DotCompensated(
                    q.row(r) + off, q.zero_point, kv.k + ids[t] * d + off,
                    kv.k_sums[ids[t] * kv.heads + h], dh);
            softmax.softmaxRow(raw.data(), cnt, nullptr, probs.data());
            std::fill(acc.begin(), acc.end(), 0);
            for (size_t t = 0; t < cnt; ++t) {
                if (probs[t] == 0)
                    continue;
                const int8_t *vrow = kv.v + ids[t] * d + off;
                for (size_t c = 0; c < dh; ++c)
                    acc[c] += probs[t] * static_cast<int32_t>(vrow[c]);
            }
            float *orow = out.row(r) + off;
            for (size_t c = 0; c < dh; ++c)
                orow[c] = static_cast<float>(acc[c]) * out_scale;
        };
    });
}

Matrix
keptSoftmax(const Matrix &s, const SparseMask *mask, bool causal,
            float scale)
{
    Matrix a(s.rows(), s.cols());
    walkRows(s.rows(), s.cols(), 1, mask, causal, [&] {
        return [&, p = std::vector<float>(s.cols())](
                   size_t r, const uint32_t *ids, size_t cnt) mutable {
            const float *srow = s.row(r);
            for (size_t t = 0; t < cnt; ++t)
                p[t] = srow[ids[t]] * scale;
            softmaxInPlace(p.data(), cnt);
            float *arow = a.row(r);
            for (size_t t = 0; t < cnt; ++t)
                arow[ids[t]] = p[t];
        };
    });
    return a;
}

SparseMask
topScoresMask(const Matrix &q, const Matrix &k, size_t off, size_t w,
              bool causal, float scale, double retention)
{
    const auto &kt = activeGemmKernels();
    SparseMask mask(q.rows(), k.rows());
    walkRows(q.rows(), k.rows(), w, nullptr, causal, [&] {
        return [&, p = std::vector<float>(k.rows())](
                   size_t r, const uint32_t *ids, size_t cnt) mutable {
            kt.sparseScoreRow(q.row(r) + off, k.data() + off, k.cols(), w,
                              ids, cnt, p.data());
            for (size_t t = 0; t < cnt; ++t)
                p[t] *= scale;
            // Unmasked ids are 0..cnt-1: top-k positions are key ids.
            std::vector<uint32_t> kept(
                std::min(keepCount(retention, cnt), cnt));
            topkRow(p.data(), cnt, kept.size(), kept.data());
            mask.setSortedRow(r, std::move(kept));
        };
    });
    return mask;
}

} // namespace dota
