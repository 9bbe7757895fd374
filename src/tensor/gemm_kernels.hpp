/**
 * @file
 * Level-1 dense micro-kernels: the ISA-dispatched inner loops behind
 * matmul / matmulBT / matmulAT and the row attention kernel
 * (DESIGN.md §11, §13).
 *
 * Each kernel exists once per SimdIsa (portable C++ and AVX2/FMA). The
 * two instantiations are bit-identical by construction because every
 * kernel honors a fixed **per-element reduction contract** — vector
 * lanes never interact across output elements, so only the per-element
 * order of operations matters, and that order is part of the interface:
 *
 *  - **Broadcast-FMA family** (matmulRows, matmulATRows, sparseAvRow):
 *    each output element is an independent fold over the reduction
 *    index p in ascending order,
 *        acc_0 = 0;  acc_{p+1} = fma(a_p, b_p, acc_p)
 *    with fma the correctly-rounded fused multiply-add (std::fma in the
 *    portable path, vfmadd in AVX2). Tiling/blocking only reorders
 *    *which* elements are in flight, never the fold inside one element.
 *
 *  - **Dot family** (dot, matmulBTRows, sparseScoreRow): the reduction
 *    over p is lane-split exactly 8 ways. With kb = k - k % 8:
 *        lane[l] = fold of fma over p in {l, l+8, ...} ∩ [0, kb)
 *        s_l = lane[l] + lane[l+4]          (l = 0..3)
 *        r   = (s_0 + s_2) + (s_1 + s_3)
 *        r   = fma(x[p], y[p], r)           for p in [kb, k) ascending
 *    This mirrors one YMM accumulator plus the canonical 128-bit
 *    horizontal sum, and the portable path replays the identical
 *    sequence with 8 scalar accumulators.
 *
 * Because each element is produced by exactly one kernel invocation and
 * the row-block partitioning of tensor/ops.cpp assigns every output row
 * to exactly one chunk, results are additionally bit-identical across
 * every DOTA_THREADS value (the PR 1 determinism contract).
 *
 * These entry points are consumed by tensor/ops.cpp,
 * tensor/rows_attention.cpp, the detector and the inference block step;
 * application code should keep calling the Matrix-level kernels in
 * tensor/ops.hpp.
 */
#pragma once

#include <cstdint>

#include "tensor/matrix.hpp"
#include "tensor/simd.hpp"

namespace dota {

/** One ISA's instantiation of the micro-kernel entry points. */
struct GemmKernelTable
{
    /**
     * C rows [i0, i1) of C = A * B, overwriting rows assumed zeroed.
     * Per element: broadcast-FMA fold over p ascending.
     */
    void (*matmulRows)(const Matrix &a, const Matrix &b, Matrix &c,
                       size_t i0, size_t i1);

    /** C rows [i0, i1) of C = A^T * B (same contract as matmulRows). */
    void (*matmulATRows)(const Matrix &a, const Matrix &b, Matrix &c,
                         size_t i0, size_t i1);

    /**
     * C rows [i0, i1) of C = A * B^T. Per element: dot-family lane-split
     * reduction over the shared dimension.
     */
    void (*matmulBTRows)(const Matrix &a, const Matrix &b, Matrix &c,
                         size_t i0, size_t i1);

    /** Lane-split dot product of x[0..k) and y[0..k) (dot family). */
    float (*dot)(const float *x, const float *y, size_t k);

    /**
     * One query row of the sparse score kernel: out[t] = dot(q, keys row
     * cols[t]) for t in [0, nnz), each element following the dot-family
     * contract with k = keys.cols().
     */
    void (*sparseScoreRow)(const float *q, const Matrix &keys,
                           const uint32_t *cols, size_t nnz, float *out);

    /**
     * One output row of the sparse A*V kernel over a strided value
     * block whose row r starts at v + r * ldv: for c in [0, width),
     * out[c] = broadcast-FMA fold over t ascending of
     * fma(vals[t], v[cols[t] * ldv + c], acc), overwriting out. A whole
     * Matrix V is (v.data(), v.cols(), v.cols()); one head of a t x d
     * KV cache is (data + h * dh, d, dh).
     */
    void (*sparseAvRow)(const float *vals, const uint32_t *cols,
                        size_t nnz, const float *v, size_t ldv,
                        size_t width, float *out);

    /**
     * Integer GEMM rows [i0, i1) of C = A * B^T on quantized codes:
     * A is m x k unsigned 8-bit codes (row-major, lda = k), B is n x k
     * signed 8-bit codes (row-major, ldb = k), C is m x n raw sums
     *     C[i*n + j] = sum_p a[i*k + p] * b[j*k + p]
     * in 32-bit integers, overwriting C rows.
     *
     * Unlike the float families above, no reduction-order contract is
     * needed: s32 addition is associative and the operand ranges are
     * chosen so the AVX2 maddubs path cannot saturate (u8 codes stay in
     * [0, 127] and s8 codes in [-127, 127], so a maddubs pair sum is at
     * most 127*127*2 = 32258 < 32767). Every instantiation is therefore
     * exact — portable/AVX2/any-thread-count parity holds by arithmetic,
     * not by convention. Caller guarantees k*16129 < 2^31 (k <= ~133k).
     * Zero-point compensation is the caller's job (tensor/quant.cpp).
     */
    void (*int8GemmBTRows)(const uint8_t *a, const int8_t *b, int32_t *c,
                           size_t k, size_t n, size_t i0, size_t i1);

    /** Exact s32 dot of u8 codes x[0..k) and s8 codes y[0..k). */
    int32_t (*int8Dot)(const uint8_t *x, const int8_t *y, size_t k);
};

/**
 * Kernel table for @p isa; degrades to the portable table when the
 * requested instantiation is not compiled into the binary.
 */
const GemmKernelTable &gemmKernels(SimdIsa isa);

/** Table for activeSimdIsa(), resolved once per process. */
const GemmKernelTable &activeGemmKernels();

namespace detail {

/** Portable (plain C++, std::fma) instantiation. */
const GemmKernelTable &portableGemmKernels();

#ifdef DOTA_SIMD_AVX2
/** AVX2/FMA instantiation (gemm_avx2.cpp, compiled with -mavx2 -mfma). */
const GemmKernelTable &avx2GemmKernels();
#endif

} // namespace detail

} // namespace dota
