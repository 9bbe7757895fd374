/**
 * @file
 * Implementation of training losses.
 */
#include "nn/loss.hpp"

#include <cmath>
#include <limits>

#include "common/logging.hpp"

namespace dota {

double
softmaxCrossEntropy(const Matrix &logits, const std::vector<int> &labels,
                    Matrix &dlogits)
{
    DOTA_ASSERT(logits.rows() == labels.size(),
                "{} rows vs {} labels", logits.rows(), labels.size());
    const size_t n = logits.rows(), c = logits.cols();
    dlogits = Matrix(n, c);
    double total = 0.0;
    size_t counted = 0;
    for (size_t i = 0; i < n; ++i) {
        if (labels[i] < 0)
            continue;
        ++counted;
    }
    DOTA_ASSERT(counted > 0, "no labeled rows in cross-entropy");
    const double inv = 1.0 / static_cast<double>(counted);

    for (size_t i = 0; i < n; ++i) {
        if (labels[i] < 0)
            continue;
        const float *row = logits.row(i);
        float mx = -std::numeric_limits<float>::infinity();
        for (size_t j = 0; j < c; ++j)
            mx = std::max(mx, row[j]);
        double denom = 0.0;
        for (size_t j = 0; j < c; ++j)
            denom += std::exp(static_cast<double>(row[j]) - mx);
        const auto label = static_cast<size_t>(labels[i]);
        DOTA_ASSERT(label < c, "label {} out of {} classes", label, c);
        const double logp =
            (static_cast<double>(row[label]) - mx) - std::log(denom);
        total += -logp;
        for (size_t j = 0; j < c; ++j) {
            const double p =
                std::exp(static_cast<double>(row[j]) - mx) / denom;
            dlogits(i, j) = static_cast<float>(
                (p - (j == label ? 1.0 : 0.0)) * inv);
        }
    }
    return total * inv;
}

std::vector<int>
rowArgmax(const Matrix &logits)
{
    std::vector<int> out(logits.rows());
    for (size_t i = 0; i < logits.rows(); ++i) {
        const float *row = logits.row(i);
        size_t best = 0;
        for (size_t j = 1; j < logits.cols(); ++j)
            if (row[j] > row[best])
                best = j;
        out[i] = static_cast<int>(best);
    }
    return out;
}

double
accuracy(const Matrix &logits, const std::vector<int> &labels)
{
    DOTA_ASSERT(logits.rows() == labels.size(), "accuracy shape mismatch");
    const auto preds = rowArgmax(logits);
    size_t hit = 0, counted = 0;
    for (size_t i = 0; i < preds.size(); ++i) {
        if (labels[i] < 0)
            continue;
        ++counted;
        hit += preds[i] == labels[i];
    }
    return counted ? static_cast<double>(hit) / counted : 0.0;
}

std::vector<int>
nextTokenLabels(const std::vector<int> &ids)
{
    std::vector<int> labels(ids.size(), -1);
    for (size_t i = 0; i + 1 < ids.size(); ++i)
        labels[i] = ids[i + 1];
    return labels;
}

double
perplexityFromLoss(double mean_ce)
{
    return std::exp(mean_ce);
}

} // namespace dota
