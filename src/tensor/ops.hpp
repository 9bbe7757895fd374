/**
 * @file
 * Dense linear-algebra and NN kernels over Matrix.
 *
 * These are the reference (bit-exact) implementations that both the
 * trainable transformer stack and the accelerator simulator's functional
 * model call into. Each kernel corresponds to an operation the DOTA
 * hardware executes, so cycle/energy models reference these names.
 *
 * The three GEMM kernels dispatch to ISA-specific micro-kernels
 * (tensor/gemm_kernels.hpp — AVX2/FMA with a portable fallback, both
 * honoring the same per-element reduction contracts so the paths are
 * bit-identical) and are row-block parallel above a size threshold
 * (common/thread_pool.hpp, DOTA_THREADS): each output row is produced by
 * exactly one thread with a fixed per-element reduction order, so results
 * are bit-identical to serial execution for every thread count.
 */
#pragma once

#include <functional>

#include "tensor/matrix.hpp"

namespace dota {

/** C = A * B. Shapes: (m x k) * (k x n) -> (m x n). */
Matrix matmul(const Matrix &a, const Matrix &b);

/** C = A * B^T. Shapes: (m x k) * (n x k) -> (m x n). */
Matrix matmulBT(const Matrix &a, const Matrix &b);

/** C = A^T * B. Shapes: (k x m) * (k x n) -> (m x n). */
Matrix matmulAT(const Matrix &a, const Matrix &b);

/** Transpose of @p a. */
Matrix transpose(const Matrix &a);

/** Elementwise sum; shapes must match. */
Matrix add(const Matrix &a, const Matrix &b);

/** Elementwise difference a - b. */
Matrix sub(const Matrix &a, const Matrix &b);

/** Elementwise (Hadamard) product. */
Matrix hadamard(const Matrix &a, const Matrix &b);

/** Scale every element by @p s. */
Matrix scale(const Matrix &a, float s);

/** Add row-vector @p bias (1 x cols) to every row of @p a. */
Matrix addRowBroadcast(const Matrix &a, const Matrix &bias);

/** Mean of the rows of @p a as one 1 x cols row (mean pooling). */
Matrix meanRows(const Matrix &a);

/**
 * Softmax of @p n values in place: the float max and the exponentials
 * from the kernel table's maxRow and expRow (gemm_kernels.hpp), so NaNs
 * are skipped by the max and stay NaN, a double normalizer summed
 * in ascending order, one float reciprocal. The row operation of
 * rowSoftmax, of rowSoftmaxMasked over a row's kept entries, and of the
 * row attention kernel.
 */
void softmaxInPlace(float *x, size_t n);

/** Row-wise softmax. */
Matrix rowSoftmax(const Matrix &a);

/**
 * Row-wise masked softmax: entries with mask == 0 are treated as -inf
 * (omitted connections). Rows whose mask is entirely zero produce all-zero
 * probability (no incoming edges).
 *
 * @param a     raw scores, n x m
 * @param mask  same shape; nonzero = keep.
 */
Matrix rowSoftmaxMasked(const Matrix &a, const Matrix &mask);

/**
 * Backward of row-wise softmax. Given y = softmax(x) per row and dL/dy,
 * returns dL/dx = y * (dy - sum(dy * y)).
 */
Matrix rowSoftmaxBackward(const Matrix &y, const Matrix &dy);

/** ReLU forward. */
Matrix relu(const Matrix &a);

/** ReLU backward: dx = dy * (x > 0). */
Matrix reluBackward(const Matrix &x, const Matrix &dy);

/**
 * GELU forward, tanh approximation, computed in its sigmoid form
 *     0.5 x (1 + tanh(u)) = x / (1 + e^{-2u}),
 *     u = sqrt(2/pi) (x + 0.044715 x^3),
 * on the kernel table's exp (geluRow), which has no 1 + tanh
 * cancellation for negative x. Against the tanh form in double: relative
 * error <= 1e-6 for x >= -3 (normal results) and absolute error <= 1e-6
 * for every finite x. gelu(±0) = ±0, gelu(+inf) = +inf, gelu(-inf) =
 * NaN (-inf / inf), NaN stays NaN.
 */
Matrix gelu(const Matrix &a);

/**
 * GELU backward of the same approximation: dx = dy * s (1 + x (2u)'
 * (1 - s)) with s = 1 / (1 + e^{-2u}) (geluBackwardRow).
 */
Matrix geluBackward(const Matrix &x, const Matrix &dy);

/**
 * Layer normalization forward over each row.
 *
 * @param x      n x d input
 * @param gamma  1 x d scale
 * @param beta   1 x d shift
 * @param[out] mean    per-row mean (n x 1), for backward
 * @param[out] rstd    per-row reciprocal stddev (n x 1), for backward
 */
Matrix layerNorm(const Matrix &x, const Matrix &gamma, const Matrix &beta,
                 Matrix &mean, Matrix &rstd, float eps = 1e-5f);

/**
 * Layer normalization backward.
 *
 * @param x       forward input
 * @param gamma   scale parameter
 * @param mean    saved per-row mean
 * @param rstd    saved per-row reciprocal stddev
 * @param dy      upstream gradient
 * @param[out] dgamma  gradient for gamma (accumulated into, 1 x d)
 * @param[out] dbeta   gradient for beta (accumulated into, 1 x d)
 * @return dx
 */
Matrix layerNormBackward(const Matrix &x, const Matrix &gamma,
                         const Matrix &mean, const Matrix &rstd,
                         const Matrix &dy, Matrix &dgamma, Matrix &dbeta);

/** Row-wise mean squared error between equal-shaped matrices. */
double mse(const Matrix &a, const Matrix &b);

/** Number of multiply-accumulate ops of matmul (m x k)*(k x n). */
uint64_t gemmMacs(size_t m, size_t k, size_t n);

/**
 * MAC count below which a GEMM-shaped kernel runs serially (the
 * measured fork/join crossover; see ops.cpp).
 */
uint64_t gemmParallelMacThreshold();

/**
 * The row partition of every row-wise kernel (the GEMMs, the int8 GEMM,
 * the row attention kernel): @p fn(r0, r1) once over [0, rows) below
 * gemmParallelMacThreshold() MACs of work, else over parallelFor chunks.
 * Every row belongs to one chunk, so the bits do not depend on the
 * thread count.
 */
void parallelRows(size_t rows, uint64_t macs,
                  const std::function<void(size_t, size_t)> &fn);

} // namespace dota
