/**
 * @file
 * Implementation of the sparse attention kernels.
 *
 * Parallelization mirrors the dense GEMMs in tensor/ops.cpp: output
 * rows are partitioned into chunks and every row is produced by exactly
 * one chunk, so results are bit-identical for every DOTA_THREADS value.
 * The serial/parallel crossover reuses the same measured MAC threshold
 * (see ops.cpp), with the work estimated as nnz * reduction-depth.
 */
#include "tensor/sparse_ops.hpp"

#include <algorithm>
#include <limits>

#include "common/thread_pool.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"

namespace dota {

namespace {

/** Same chunking policy as the dense GEMMs (ops.cpp gemmGrain). */
size_t
rowGrain(size_t rows)
{
    const size_t conc = ThreadPool::globalConcurrency();
    return std::max<size_t>(1, rows / (4 * conc));
}

} // namespace

Matrix
CsrMatrix::toDense() const
{
    Matrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (uint32_t t = row_ptr[r]; t < row_ptr[r + 1]; ++t)
            m(r, col[t]) = val[t];
    return m;
}

CsrMatrix
csrFromMask(const SparseMask &mask)
{
    CsrMatrix out;
    out.rows = mask.rows();
    out.cols = mask.cols();
    out.row_ptr.resize(out.rows + 1);
    out.row_ptr[0] = 0;
    const uint64_t nnz = mask.nnz();
    DOTA_ASSERT(nnz <= std::numeric_limits<uint32_t>::max(),
                "mask nnz {} overflows CSR offsets", nnz);
    out.col.reserve(static_cast<size_t>(nnz));
    for (size_t r = 0; r < out.rows; ++r) {
        const auto &ids = mask.row(r);
        out.col.insert(out.col.end(), ids.begin(), ids.end());
        out.row_ptr[r + 1] = static_cast<uint32_t>(out.col.size());
    }
    out.val.assign(out.col.size(), 0.0f);
    return out;
}

CsrMatrix
sparseRowsMatmulBT(const Matrix &a, const Matrix &b, const SparseMask &mask)
{
    DOTA_ASSERT(a.cols() == b.cols(), "sparseRowsMatmulBT {} * {}^T",
                a.shapeStr(), b.shapeStr());
    DOTA_ASSERT(mask.rows() == a.rows() && mask.cols() == b.rows(),
                "sparseRowsMatmulBT mask {}x{} over {}x{} scores",
                mask.rows(), mask.cols(), a.rows(), b.rows());
    CsrMatrix s = csrFromMask(mask);
    const auto &kt = activeGemmKernels();
    auto rowBlock = [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            const uint32_t t0 = s.row_ptr[r];
            kt.sparseScoreRow(a.row(r), b, s.col.data() + t0,
                              s.row_ptr[r + 1] - t0, s.val.data() + t0);
        }
    };
    const uint64_t macs = static_cast<uint64_t>(s.nnz()) * a.cols();
    if (macs < gemmParallelMacThreshold())
        rowBlock(0, s.rows);
    else
        parallelFor(0, s.rows, rowGrain(s.rows), rowBlock);
    return s;
}

CsrMatrix
maskedSoftmax(const CsrMatrix &s, float scale)
{
    CsrMatrix y = s;
    for (size_t r = 0; r < y.rows; ++r) {
        const uint32_t t0 = y.row_ptr[r], t1 = y.row_ptr[r + 1];
        // One rounding for the scaling, as scale() does in the dense
        // path, then the exact rowSoftmaxMasked operation sequence. A
        // row without kept entries stays empty: the dense all-zero row.
        float *v = y.val.data();
        for (uint32_t t = t0; t < t1; ++t)
            v[t] = s.val[t] * scale;
        softmaxInPlace(v + t0, t1 - t0);
    }
    return y;
}

Matrix
sparseRowsMatmul(const CsrMatrix &a, const Matrix &v)
{
    DOTA_ASSERT(a.cols == v.rows(), "sparseRowsMatmul {}x{} * {}", a.rows,
                a.cols, v.shapeStr());
    Matrix out(a.rows, v.cols());
    const auto &kt = activeGemmKernels();
    auto rowBlock = [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            const uint32_t t0 = a.row_ptr[r];
            kt.sparseAvRow(a.val.data() + t0, a.col.data() + t0,
                           a.row_ptr[r + 1] - t0, v.data(), v.cols(),
                           v.cols(), out.row(r));
        }
    };
    const uint64_t macs = static_cast<uint64_t>(a.nnz()) * v.cols();
    if (macs < gemmParallelMacThreshold())
        rowBlock(0, a.rows);
    else
        parallelFor(0, a.rows, rowGrain(a.rows), rowBlock);
    return out;
}

Matrix
sparseMaskedAttention(const Matrix &q, const Matrix &k, const Matrix &v,
                      const SparseMask &mask, float scale)
{
    const CsrMatrix s = sparseRowsMatmulBT(q, k, mask);
    const CsrMatrix p = maskedSoftmax(s, scale);
    return sparseRowsMatmul(p, v);
}

} // namespace dota
