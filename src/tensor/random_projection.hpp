/**
 * @file
 * Random projections used by the two detection mechanisms.
 *
 * DOTA's detector reduces the model dimension with an Achlioptas sparse
 * random projection P in sqrt(3/k) * {-1, 0, +1}^{d x k} (Section 3.1);
 * ELSA's detector uses dense sign random projection hashes. Both live here
 * so the detection libraries share one audited implementation.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "tensor/matrix.hpp"

namespace dota {

/**
 * Achlioptas sparse random projection matrix, d x k, entries
 * sqrt(3/k) * {+1 w.p. 1/6, 0 w.p. 2/3, -1 w.p. 1/6}.
 */
Matrix sparseRandomProjection(size_t d, size_t k, Rng &rng);

/** Dense Gaussian random projection, d x k, entries N(0, 1/sqrt(k)). */
Matrix gaussianRandomProjection(size_t d, size_t k, Rng &rng);

/**
 * Sign-random-projection hashes (ELSA-style): project each row of @p x
 * onto @p m random hyperplanes and keep the sign bits, packed into u64
 * words (m <= 64 per word group).
 */
class SignHashes
{
  public:
    /** Hash every row of @p x with @p m hyperplanes drawn from @p rng. */
    SignHashes(const Matrix &x, size_t m, Rng &rng);

    /** Hash rows of @p x with a shared, pre-drawn hyperplane matrix. */
    SignHashes(const Matrix &x, const Matrix &hyperplanes);

    /** Hamming distance between the hashes of rows @p i and @p j. */
    uint32_t hamming(size_t i, size_t j) const;

    /**
     * ELSA's angular similarity estimate between hashed vectors:
     * cos(pi * hamming / m). Larger means the query-key angle is smaller,
     * i.e. a likely-strong connection.
     */
    double similarity(size_t i, size_t j) const;

    /** The hyperplane matrix used (d x m), for hashing other tensors. */
    const Matrix &hyperplanes() const { return planes_; }

    /** Cross-set similarity: this (queries) against @p keys. */
    double crossSimilarity(size_t qi, const SignHashes &keys,
                           size_t kj) const;

  private:
    void hashRows(const Matrix &x);

    size_t m_ = 0;
    Matrix planes_;
    std::vector<std::vector<uint64_t>> hashes_;
};

} // namespace dota
