/**
 * @file
 * Implementation of the dense matrix type.
 */
#include "tensor/matrix.hpp"

#include <cmath>

namespace dota {

Matrix
Matrix::randomNormal(size_t rows, size_t cols, Rng &rng, float mean,
                     float stddev)
{
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.normal(mean, stddev));
    return m;
}

Matrix
Matrix::randomUniform(size_t rows, size_t cols, Rng &rng, float lo, float hi)
{
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.uniform(lo, hi));
    return m;
}

Matrix
Matrix::xavier(size_t fan_in, size_t fan_out, Rng &rng)
{
    const float limit =
        std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
    return randomUniform(fan_in, fan_out, rng, -limit, limit);
}

Matrix
Matrix::identity(size_t n)
{
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i)
        m(i, i) = 1.0f;
    return m;
}

Matrix
Matrix::rowCopy(size_t r) const
{
    DOTA_ASSERT(r < rows_, "row {} out of {}", r, rows_);
    Matrix out(1, cols_);
    std::copy(row(r), row(r) + cols_, out.data());
    return out;
}

void
Matrix::appendRows(const Matrix &rows)
{
    if (rows_ == 0)
        cols_ = rows.cols_;
    DOTA_ASSERT(rows.cols_ == cols_, "appending {} rows to {}",
                rows.shapeStr(), shapeStr());
    data_.insert(data_.end(), rows.data_.begin(), rows.data_.end());
    rows_ += rows.rows_;
}

double
Matrix::frobeniusNorm() const
{
    double acc = 0.0;
    for (float v : data_)
        acc += static_cast<double>(v) * static_cast<double>(v);
    return std::sqrt(acc);
}

double
Matrix::sum() const
{
    double acc = 0.0;
    for (float v : data_)
        acc += v;
    return acc;
}

double
Matrix::maxAbsDiff(const Matrix &a, const Matrix &b)
{
    DOTA_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                "shape mismatch {} vs {}", a.shapeStr(), b.shapeStr());
    double worst = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        const double d = std::abs(static_cast<double>(a.data()[i]) -
                                  static_cast<double>(b.data()[i]));
        worst = std::max(worst, d);
    }
    return worst;
}

bool
Matrix::allClose(const Matrix &a, const Matrix &b, double tol)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return maxAbsDiff(a, b) <= tol;
}

std::string
Matrix::shapeStr() const
{
    return format("Matrix({}x{})", rows_, cols_);
}

} // namespace dota
