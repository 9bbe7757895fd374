/**
 * @file
 * Level-1 dense micro-kernels: the ISA-dispatched inner loops behind
 * matmul / matmulBT / matmulAT, the row attention kernel, the softmax
 * exp and GELU (DESIGN.md §11, §13).
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
 *  - **Dot family** (matmulBTRows, sparseScoreRow, keysTScoreRow): the
 *    reduction over p is lane-split exactly 8 ways. With kb = k - k % 8:
 *        lane[l] = fold of fma over p in {l, l+8, ...} ∩ [0, kb)
 *        s_l = lane[l] + lane[l+4]          (l = 0..3)
 *        r   = (s_0 + s_2) + (s_1 + s_3)
 *        r   = fma(x[p], y[p], r)           for p in [kb, k) ascending
 *    This mirrors one YMM accumulator plus the canonical 128-bit
 *    horizontal sum, and the portable path replays the identical
 *    sequence with 8 scalar accumulators. keysTScoreRow puts 8 keys in
 *    the vector lanes instead and keeps the 8 lane accumulators of each
 *    key in 8 registers, so every key sees the same sequence.
 *
 *  - **Max** (maxRow): the largest input, NaNs skipped. A max does not
 *    depend on the order it is taken in, except for the sign of a zero
 *    maximum, which may differ between the tables.
 *
 *  - **Top-k sweeps** (topkKeysRow, topkPackRow): integer work on
 *    order keys (see topkKeysRow), exact on every table; tensor/topk.cpp
 *    builds the exact row top-k from them.
 *
 *  - **Elementwise family** (expRow, geluRow, geluBackwardRow): each
 *    output element is a fixed sequence of operations on its own input
 *    values only (exp: Cody–Waite reduction, a degree-6 polynomial in
 *    fma steps and a 2^n exponent add; GELU on that exp), written once
 *    over a lane type in tensor/elementwise_impl.hpp. A vector body and
 *    its tail run the same sequence, so an element's bits depend on its
 *    input alone, never on the array length, its position or the
 *    thread count.
 *
 * Because each element is produced by exactly one kernel invocation and
 * the row-block partitioning of tensor/ops.cpp assigns every output row
 * to exactly one chunk, results are additionally bit-identical across
 * every DOTA_THREADS value (the PR 1 determinism contract).
 *
 * These entry points are consumed by tensor/ops.cpp,
 * tensor/rows_attention.cpp and the detector; application code should
 * keep calling the Matrix-level kernels in tensor/ops.hpp.
 */
#pragma once

#include <bit>
#include <cstdint>

#include "tensor/matrix.hpp"
#include "tensor/simd.hpp"

namespace dota {

/**
 * Order key of a float for the top-k sweeps: keys compare as signed
 * integers exactly as the floats do. -0 is canonicalized to +0 by
 * x + 0.0f first, so the two zeros tie; a NaN ranks by its bit pattern,
 * above +inf with the sign bit clear and below -inf with it set.
 */
inline int32_t
topkOrderKey(float x)
{
    const int32_t b = std::bit_cast<int32_t>(x + 0.0f);
    return b ^ ((b >> 31) & 0x7fffffff);
}

/** Bits of a key's top digit, the topkKeysRow histogram's bins. */
inline constexpr unsigned kTopkBinBits = 11;
inline constexpr size_t kTopkBins = size_t{1} << kTopkBinBits;

/** Histogram bin of a key: its top kTopkBinBits bits, read unsigned. */
inline size_t
topkKeyBin(int32_t key)
{
    return (std::bit_cast<uint32_t>(key) ^ 0x80000000u) >>
           (32 - kTopkBinBits);
}

/** Least and largest key of one topkKeysRow sweep. */
struct TopkKeyRange
{
    int32_t lo, hi;
};

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

    /**
     * One query row of the sparse score kernel over a strided key block
     * whose row r starts at keys + r * ldk: out[t] = the dot-family
     * reduction of q[0..k) against key row cols[t], for t in [0, nnz).
     * Strides as in sparseAvRow.
     */
    void (*sparseScoreRow)(const float *q, const float *keys, size_t ldk,
                           size_t k, const uint32_t *cols, size_t nnz,
                           float *out);

    /**
     * One query row scored against the first m keys of a transposed key
     * block: row p of @p kt (starting at kt + p * ldt) holds coordinate p
     * of every key, so key j is column j. out[j] = the dot-family
     * reduction of q[0..k) against key j, for j in [0, m): the bits of
     * matmulBTRows and sparseScoreRow on the untransposed keys. The
     * detector's estimate over a contiguous key prefix.
     */
    void (*keysTScoreRow)(const float *q, const float *kt, size_t ldt,
                          size_t k, size_t m, float *out);

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

    /**
     * out[i] = exp(x[i] - shift) for i in [0, n); out may be x. NaN
     * stays NaN, exp(-inf) = +0 and exp(0) = 1 exactly; results below
     * FLT_MIN flush to +0 and results above FLT_MAX are +inf. Relative
     * error <= 8.3e-8 on every normal result.
     */
    void (*expRow)(const float *x, float shift, size_t n, float *out);

    /**
     * y[i] = GELU(x[i]) for i in [0, n) (tanh approximation, in the
     * form x / (1 + e^{-2u}); see ops.hpp); y may be x.
     */
    void (*geluRow)(const float *x, size_t n, float *y);

    /** dx[i] = dy[i] * GELU'(x[i]) for i in [0, n). */
    void (*geluBackwardRow)(const float *x, const float *dy, size_t n,
                            float *dx);

    /**
     * The fold mx = std::max(mx, x[i]) over i in [0, n) from mx = -inf:
     * NaNs are skipped, and n = 0 or an all-NaN row gives -inf. The
     * value is the same on every table; a zero maximum may come back
     * as +0 or -0.
     */
    float (*maxRow)(const float *x, size_t n);

    /**
     * First top-k sweep: keys[j] = topkOrderKey(x[j]) for j in [0, n),
     * and ++hist[topkKeyBin(keys[j])] for each (the caller zeroes the
     * touched bins). Returns the least and the largest key; n >= 1.
     */
    TopkKeyRange (*topkKeysRow)(const float *x, size_t n, int32_t *keys,
                                uint32_t *hist);

    /**
     * Left-pack sweep: writes to out, ascending, every j in [0, n) with
     * thr < keys[j] <= hi and the first @p ties j with keys[j] == thr,
     * and stops once @p limit ids are written (nothing is written past
     * out[limit)). Returns the number of ids written.
     */
    size_t (*topkPackRow)(const int32_t *keys, size_t n, int32_t thr,
                          int32_t hi, size_t ties, size_t limit,
                          uint32_t *out);
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
