/**
 * @file
 * Implementation of the sparse attention mask.
 */
#include "tensor/sparse_mask.hpp"

#include <algorithm>
#include <functional>
#include <set>

namespace dota {

SparseMask
SparseMask::fromDense(const Matrix &mask)
{
    SparseMask out(mask.rows(), mask.cols());
    for (size_t r = 0; r < mask.rows(); ++r) {
        const float *row = mask.row(r);
        for (size_t c = 0; c < mask.cols(); ++c)
            if (row[c] != 0.0f)
                out.ids_[r].push_back(static_cast<uint32_t>(c));
    }
    return out;
}

Matrix
SparseMask::toDense() const
{
    Matrix m(rows_, cols_);
    for (size_t r = 0; r < rows_; ++r) {
        float *mrow = m.row(r);
        for (uint32_t c : ids_[r])
            mrow[c] = 1.0f;
    }
    return m;
}

void
SparseMask::setRow(size_t r, std::vector<uint32_t> ids)
{
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    DOTA_ASSERT(ids.empty() || ids.back() < cols_,
                "key id {} out of {} columns", ids.back(), cols_);
    ids_[r] = std::move(ids);
}

void
SparseMask::setSortedRow(size_t r, std::vector<uint32_t> ids)
{
    DOTA_ASSERT(std::adjacent_find(ids.begin(), ids.end(),
                                   std::greater_equal<uint32_t>()) ==
                        ids.end() &&
                    (ids.empty() || ids.back() < cols_),
                "row {} ids are not strictly ascending below {}", r, cols_);
    ids_[r] = std::move(ids);
}

void
SparseMask::sortRows()
{
    for (auto &row : ids_) {
        std::sort(row.begin(), row.end());
        row.erase(std::unique(row.begin(), row.end()), row.end());
    }
}

uint64_t
SparseMask::nnz() const
{
    uint64_t total = 0;
    for (const auto &row : ids_)
        total += row.size();
    return total;
}

double
SparseMask::density() const
{
    if (rows_ == 0 || cols_ == 0)
        return 0.0;
    return static_cast<double>(nnz()) /
           (static_cast<double>(rows_) * static_cast<double>(cols_));
}

bool
SparseMask::rowBalanced() const
{
    if (rows_ == 0)
        return true;
    const size_t k = ids_[0].size();
    for (const auto &row : ids_)
        if (row.size() != k)
            return false;
    return true;
}

size_t
SparseMask::distinctKeys() const
{
    std::set<uint32_t> keys;
    for (const auto &row : ids_)
        keys.insert(row.begin(), row.end());
    return keys.size();
}

bool
SparseMask::contains(size_t r, uint32_t c) const
{
    const auto &row = ids_[r];
    return std::binary_search(row.begin(), row.end(), c);
}

} // namespace dota
