/**
 * @file
 * The exact row-at-a-time attention kernel (DESIGN.md §13): one head of
 * softmax(scale * Q K^T) V computed only at the keys each query row
 * keeps, with no n x n buffer.
 *
 * Each query row scores its kept keys into one m-float scratch row
 * (the dot-family sparseScoreRow), scales them with one rounding, runs
 * softmaxInPlace over them and folds them against V in ascending key
 * order (the broadcast-FMA sparseAvRow). That is the per-element
 * operation sequence of the dense masked path — matmulBT, scale,
 * rowSoftmax / rowSoftmaxMasked, matmul with the omitted (exactly zero)
 * terms skipped — so the output is bit-identical to dense, and FLOPs
 * scale with the kept connections (paper Figure 3).
 *
 * Memory: every thread holds one m-float row of scores (plus m key ids
 * for an unmasked head), so a 32k-token head needs no score matrix.
 *
 * Determinism: every query row belongs to exactly one parallelFor
 * chunk, so results are bit-identical across DOTA_THREADS values and
 * across the AVX2/portable kernel tables (tensor/gemm_kernels.hpp).
 */
#pragma once

#include "tensor/matrix.hpp"
#include "tensor/sparse_mask.hpp"

namespace dota {

/**
 * One attention head, one query row at a time.
 *
 * @param q       queries, n x d
 * @param k       keys,    m x d
 * @param v       values,  m x dv
 * @param mask    kept keys per query row (n x m); nullptr keeps every
 *                key, or keys [0, r] of row r when @p causal is set
 * @param causal  causal bound of an unmasked head (a mask replaces it)
 * @param scale   score scaling (1/sqrt(d_k)), one rounding per score
 * @return        n x dv context; rows with no kept key are zero
 */
Matrix rowsAttention(const Matrix &q, const Matrix &k, const Matrix &v,
                     const SparseMask *mask, bool causal, float scale);

} // namespace dota
