/**
 * @file
 * Dense row-major float matrix — the numeric workhorse of DOTA.
 *
 * Everything numerical in the repository (the transformer stack, the
 * detector, the attention-graph experiments) operates on this type. It is
 * deliberately simple: contiguous float32 storage, bounds-checked element
 * access in debug paths, and no expression templates — kernels live in
 * tensor/ops.hpp where they can be reasoned about (and cycle-modeled)
 * individually.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace dota {

/** Dense row-major matrix of float32. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** @p rows x @p cols matrix initialized to @p fill. */
    Matrix(size_t rows, size_t cols, float fill = 0.0f)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    /** Build from explicit row-major data (size must match). */
    Matrix(size_t rows, size_t cols, std::vector<float> data)
        : rows_(rows), cols_(cols), data_(std::move(data))
    {
        DOTA_ASSERT(data_.size() == rows_ * cols_,
                    "data size {} != {}x{}", data_.size(), rows_, cols_);
    }

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &
    operator()(size_t r, size_t c)
    {
        DOTA_ASSERT(r < rows_ && c < cols_,
                    "index ({}, {}) out of {}x{}", r, c, rows_, cols_);
        return data_[r * cols_ + c];
    }

    float
    operator()(size_t r, size_t c) const
    {
        DOTA_ASSERT(r < rows_ && c < cols_,
                    "index ({}, {}) out of {}x{}", r, c, rows_, cols_);
        return data_[r * cols_ + c];
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }
    float *row(size_t r) { return data_.data() + r * cols_; }
    const float *row(size_t r) const { return data_.data() + r * cols_; }

    /** Set every element to @p v. */
    void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

    /** Zero all elements (keeps the shape). */
    void zero() { fill(0.0f); }

    /** Reshape in place; element count must be preserved. */
    void
    reshape(size_t rows, size_t cols)
    {
        DOTA_ASSERT(rows * cols == data_.size(),
                    "reshape {}x{} incompatible with {} elements", rows,
                    cols, data_.size());
        rows_ = rows;
        cols_ = cols;
    }

    /**
     * Append the rows of @p rows in place (amortized growth, no copy of
     * the existing rows); a 0-row matrix takes @p rows' column count.
     */
    void appendRows(const Matrix &rows);

    /** Gaussian init with given stddev (used for weight matrices). */
    static Matrix randomNormal(size_t rows, size_t cols, Rng &rng,
                               float mean = 0.0f, float stddev = 1.0f);

    /** Uniform init in [lo, hi). */
    static Matrix randomUniform(size_t rows, size_t cols, Rng &rng,
                                float lo = -1.0f, float hi = 1.0f);

    /** Xavier/Glorot init for a fan_in x fan_out weight. */
    static Matrix xavier(size_t fan_in, size_t fan_out, Rng &rng);

    /** Identity matrix of size n. */
    static Matrix identity(size_t n);

    /** Copy of one row as a 1 x cols matrix. */
    Matrix rowCopy(size_t r) const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Sum of all elements. */
    double sum() const;

    /** Max |a_ij - b_ij| between two equal-shaped matrices. */
    static double maxAbsDiff(const Matrix &a, const Matrix &b);

    /** True when shapes match and all elements are within @p tol. */
    static bool allClose(const Matrix &a, const Matrix &b,
                         double tol = 1e-5);

    /** Short human-readable description, e.g. "Matrix(384x64)". */
    std::string shapeStr() const;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<float> data_;
};

} // namespace dota
