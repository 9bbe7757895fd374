/**
 * @file
 * The exact row-at-a-time attention kernel (DESIGN.md §13): one head of
 * softmax(scale * Q K^T) V computed only at the keys each query row
 * keeps, with no n x n buffer. It is the one walk over query rows behind
 * every inference attention (MultiHeadAttention's sparse path, the
 * inference block step in fp32 and int8, which reads each head of its
 * KV cache in place), and the dense path softmaxes its captured S over
 * the same keys.
 *
 * Kept keys: row r of n queries against m keys keeps its mask row, or
 * else keys [0, m - n + r] (causal, end-aligned: [0, r] in a square
 * head) or [0, m).
 *
 * An fp32 row scores its kept keys into one m-float scratch row
 * (sparseScoreRow), scales them with one rounding, runs softmaxInPlace
 * and folds them against V in ascending key order (sparseAvRow): the
 * per-element operation sequence of the dense masked path with the
 * omitted, exactly zero terms skipped. So the output is bit-identical
 * to dense, and FLOPs scale with the kept connections (paper Figure 3).
 * A thread holds one score row, never a score matrix, and every query
 * row belongs to one parallelFor chunk, so the bits do not depend on
 * DOTA_THREADS or on the kernel table either.
 */
#pragma once

#include "tensor/int8_gemm.hpp"
#include "tensor/int_softmax.hpp"
#include "tensor/sparse_mask.hpp"

namespace dota {

/**
 * One head, one query row at a time: columns [off, off + w) of @p q
 * (n x d) against the same columns of @p k and @p v (m x d), written
 * into those columns of @p out (n x d); rows with no kept key are zero.
 *
 * @param mask    kept keys per query row (n x m); nullptr keeps the
 *                causal bound's keys, or every key
 * @param causal  causal bound of an unmasked head (a mask replaces it)
 * @param scale   score scaling (1/sqrt(d_k)), one rounding per score
 */
void rowsAttention(const Matrix &q, const Matrix &k, const Matrix &v,
                   size_t off, size_t w, Matrix &out,
                   const SparseMask *mask, bool causal, float scale);

/** rowsAttention of one whole-width head: returns the n x d output. */
Matrix rowsAttention(const Matrix &q, const Matrix &k, const Matrix &v,
                     const SparseMask *mask, bool causal, float scale);

/** m cached rows of s8 K/V codes (row-major) and K code sums per head. */
struct Int8KvRows
{
    const int8_t *k, *v;
    const int32_t *k_sums; ///< m x heads
    size_t m, heads;
};

/**
 * Head @p h of int8 attention (DESIGN.md §16) on the same walk: each
 * kept key's compensated s32 score against the u8 codes @p q (n x d),
 * the @p softmax row, then the exact integer A*V times @p out_scale
 * into the head's columns of @p out.
 */
void int8RowsAttention(const U8Tensor &q, const Int8KvRows &kv, size_t h,
                       const IntSoftmaxLut &softmax, float out_scale,
                       Matrix &out, const SparseMask *mask, bool causal);

/**
 * The dense path's A: each row of the raw scores @p s (n x m) scaled
 * once and soft-maxed over its kept keys, zero elsewhere — the
 * rowSoftmaxMasked operation sequence.
 */
Matrix keptSoftmax(const Matrix &s, const SparseMask *mask, bool causal,
                   float scale);

/**
 * Exact top-k mask of one unmasked head (columns as in rowsAttention):
 * row r keeps the keepCount(@p retention, visible) keys of highest
 * scaled score among its causal bound's keys, ascending, lower key
 * first on ties. Scores carry rowsAttention's bits.
 */
SparseMask topScoresMask(const Matrix &q, const Matrix &k, size_t off,
                         size_t w, bool causal, float scale,
                         double retention);

} // namespace dota
