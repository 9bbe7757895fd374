/**
 * @file
 * Row-wise top-k selection and thresholding over score matrices.
 *
 * These kernels implement the Detector's selection step (Section 3.1):
 * given (estimated) attention scores, keep the k largest entries per row —
 * the row-balance constraint of Section 4.3 falls out naturally because
 * every row keeps exactly k connections — or compare against a preset
 * threshold as the hardware comparator does.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"

namespace dota {

/**
 * Exact row top-k, the one selection routine behind every function
 * below: writes the indices of the min(k, n) largest of x[0..n) to
 * out[0..) in ascending index order and returns how many (k = 0 keeps
 * nothing; k >= n keeps every index).
 *
 * Order: the larger value first; equal values keep the lower index;
 * -0 equals +0. NaNs rank by their bit pattern: a NaN with the sign bit
 * clear above +inf, one with it set below -inf.
 *
 * Radix select on order-preserving integer keys (topkOrderKey in
 * gemm_kernels.hpp), in two vector sweeps of the kernel table: the
 * first writes the keys, their range and a histogram of their top 11
 * bits, which finds the bin of the k-th largest key; that bin's keys
 * are packed out and refined 7 bits at a time; the second sweep
 * left-packs every index whose key is above the threshold plus the
 * lowest-index ties at it. No sort and no comparator, so the ids come
 * out ascending for free; nothing is written past out[min(k, n)).
 */
size_t topkRow(const float *x, size_t n, size_t k, uint32_t *out);

/**
 * Keys a top-k selector keeps: max(1, round(@p fraction * @p n)), halves
 * away from zero. Decode and the simulators' cost models count with it.
 */
size_t keepCount(double fraction, size_t n);

/** Indices of the k largest entries of row @p r (ascending, topkRow). */
std::vector<uint32_t> rowTopK(const Matrix &scores, size_t r, size_t k);

/**
 * Row-balanced top-k selection: a 0/1 mask with exactly
 * min(k, cols) ones per row. This is the DOTA selection rule.
 */
Matrix topkMask(const Matrix &scores, size_t k);

/**
 * Causal variant: row i may only select from columns 0..i. Each row keeps
 * min(k, i+1) connections (decoder processing, Section 4.4).
 */
Matrix topkMaskCausal(const Matrix &scores, size_t k);

/** Unbalanced thresholding: keep entries with score >= threshold. */
Matrix thresholdMask(const Matrix &scores, float threshold);

/**
 * Find the global threshold whose mask retains approximately
 * @p retention * size entries (used to map retention ratios onto the
 * hardware comparator's preset threshold).
 */
float thresholdForRetention(const Matrix &scores, double retention);

/** Fraction of nonzero entries in a 0/1 mask. */
double maskDensity(const Matrix &mask);

/** Number of nonzeros in row @p r of a 0/1 mask. */
size_t maskRowCount(const Matrix &mask, size_t r);

/**
 * Detection quality metric: average over rows of
 * |selected ∩ true top-k| / k, where "true" is taken from @p exact scores
 * and "selected" from @p mask.
 */
double topkRecall(const Matrix &exact, const Matrix &mask, size_t k);

/**
 * Attention-mass recall: the fraction of each row's true softmax
 * probability mass that falls on selected connections, averaged over
 * rows. @p scaled_scores must already include the 1/sqrt(d_k) factor.
 * This is the quantity omission actually loses — strict top-k overlap
 * over-penalizes ties among near-uniform weak connections.
 */
double attentionMassRecall(const Matrix &scaled_scores, const Matrix &mask);

} // namespace dota
