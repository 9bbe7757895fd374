/**
 * @file
 * Training losses: softmax cross-entropy (classification and language
 * modeling) and helpers to convert between loss and perplexity.
 */
#pragma once

#include <vector>

#include "tensor/matrix.hpp"

namespace dota {

/**
 * Mean softmax cross-entropy over rows of @p logits.
 *
 * @param logits     (n x C)
 * @param labels     n class indices; an index of -1 skips that row
 *                   (used to ignore positions in LM training)
 * @param[out] dlogits  gradient of the mean loss w.r.t. logits
 * @return the mean loss over the non-ignored rows
 */
double softmaxCrossEntropy(const Matrix &logits,
                           const std::vector<int> &labels, Matrix &dlogits);

/**
 * Language-model labels of @p ids for softmaxCrossEntropy: position i
 * predicts token i+1, and the last position is ignored (-1).
 */
std::vector<int> nextTokenLabels(const std::vector<int> &ids);

/** Argmax of each row. */
std::vector<int> rowArgmax(const Matrix &logits);

/** Classification accuracy of argmax predictions vs labels (ignores -1). */
double accuracy(const Matrix &logits, const std::vector<int> &labels);

/** Perplexity = exp(mean cross-entropy). */
double perplexityFromLoss(double mean_ce);

} // namespace dota
