/**
 * @file
 * Implementation of the ELSA detection baseline.
 */
#include "detect/elsa_detector.hpp"

#include <cmath>

namespace dota {

void
ElsaDetector::observeQK(size_t layer, size_t head, const Matrix &q,
                        const Matrix &k)
{
    (void)layer;
    (void)head;
    // Fresh hyperplanes per head, as ELSA draws them per-layer in
    // hardware ROM; the estimate only needs them to be shared between the
    // query and key hashing of the same head.
    const Matrix planes =
        Matrix::randomNormal(q.cols(), cfg_.hash_bits, rng_);
    const SignHashes qh(q, planes);
    const SignHashes kh(k, planes);

    std::vector<double> knorm(k.rows(), 1.0);
    std::vector<double> qnorm(q.rows(), 1.0);
    if (cfg_.use_norms) {
        for (size_t j = 0; j < k.rows(); ++j) {
            double acc = 0.0;
            for (size_t c = 0; c < k.cols(); ++c)
                acc += static_cast<double>(k(j, c)) * k(j, c);
            knorm[j] = std::sqrt(acc);
        }
        for (size_t i = 0; i < q.rows(); ++i) {
            double acc = 0.0;
            for (size_t c = 0; c < q.cols(); ++c)
                acc += static_cast<double>(q(i, c)) * q(i, c);
            qnorm[i] = std::sqrt(acc);
        }
    }

    est_ = Matrix(q.rows(), k.rows());
    for (size_t i = 0; i < q.rows(); ++i)
        for (size_t j = 0; j < k.rows(); ++j)
            est_(i, j) = static_cast<float>(
                qnorm[i] * knorm[j] * qh.crossSimilarity(i, kh, j));
}

Matrix
ElsaDetector::selectMask(size_t layer, size_t head, bool causal)
{
    (void)layer;
    (void)head;
    DOTA_ASSERT(!est_.empty(), "selectMask before observeQK");
    const size_t keep = keepCount(cfg_.retention, est_.rows());
    return causal ? topkMaskCausal(est_, keep) : topkMask(est_, keep);
}

} // namespace dota
