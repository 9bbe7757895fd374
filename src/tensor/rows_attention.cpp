/**
 * @file
 * Implementation of the row-at-a-time attention kernel.
 *
 * Parallelization mirrors the dense GEMMs in tensor/ops.cpp: query rows
 * are partitioned into chunks and every row is produced by exactly one
 * chunk. The serial/parallel crossover reuses the measured GEMM MAC
 * threshold, with the work estimated as kept connections * head dim.
 */
#include "tensor/rows_attention.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"

namespace dota {

Matrix
rowsAttention(const Matrix &q, const Matrix &k, const Matrix &v,
              const SparseMask *mask, bool causal, float scale)
{
    DOTA_ASSERT(q.cols() == k.cols(), "rowsAttention {} vs {} keys",
                q.shapeStr(), k.shapeStr());
    DOTA_ASSERT(k.rows() == v.rows(), "rowsAttention {} keys vs {}",
                k.shapeStr(), v.shapeStr());
    if (mask) {
        DOTA_ASSERT(mask->rows() == q.rows() && mask->cols() == k.rows(),
                    "rowsAttention mask {}x{} over {}x{} scores",
                    mask->rows(), mask->cols(), q.rows(), k.rows());
    }
    const size_t n = q.rows(), m = k.rows(), dv = v.cols();
    Matrix out(n, dv);
    if (n == 0 || m == 0)
        return out;
    const auto &kt = activeGemmKernels();

    auto rowBlock = [&](size_t r0, size_t r1) {
        // The chunk's whole transient footprint: one row of scores, and
        // the ids 0..m-1 when no mask lists the kept keys.
        std::vector<float> p(m);
        std::vector<uint32_t> all(mask ? 0 : m);
        std::iota(all.begin(), all.end(), 0u);
        for (size_t r = r0; r < r1; ++r) {
            const uint32_t *ids = all.data();
            size_t cnt = causal ? std::min(m, r + 1) : m;
            if (mask) {
                ids = mask->row(r).data();
                cnt = mask->row(r).size();
            }
            kt.sparseScoreRow(q.row(r), k, ids, cnt, p.data());
            for (size_t t = 0; t < cnt; ++t)
                p[t] *= scale;
            softmaxInPlace(p.data(), cnt);
            // No kept key: sparseAvRow writes the dense path's zero row.
            kt.sparseAvRow(p.data(), ids, cnt, v.data(), dv, dv, out.row(r));
        }
    };

    const uint64_t kept =
        mask ? mask->nnz()
             : (causal ? static_cast<uint64_t>(m) * (m + 1) / 2
                       : static_cast<uint64_t>(n) * m);
    if (kept * q.cols() < gemmParallelMacThreshold()) {
        rowBlock(0, n);
    } else {
        const size_t grain =
            std::max<size_t>(1, n / (4 * ThreadPool::globalConcurrency()));
        parallelFor(0, n, grain, rowBlock);
    }
    return out;
}

} // namespace dota
