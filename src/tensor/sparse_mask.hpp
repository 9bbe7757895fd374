/**
 * @file
 * Compact representation of a detected sparse attention graph.
 *
 * A SparseMask stores, for each query row, the list of selected key
 * column indices. It is the hand-off format between the Detector (which
 * produces it), the Scheduler (which orders its IDs for the token-parallel
 * dataflow), and the accelerator simulator (which derives cycle counts and
 * memory traffic from it). Dense n x n masks are impractical at the
 * paper's 4K sequence lengths, so everything performance-related uses this
 * type.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"

namespace dota {

/** Row-indexed sparse attention selection. */
class SparseMask
{
  public:
    SparseMask() = default;

    /** Empty mask over an @p rows x @p cols attention matrix. */
    SparseMask(size_t rows, size_t cols)
        : rows_(rows), cols_(cols), ids_(rows)
    {}

    /** Convert a dense 0/1 mask (an empty matrix gives an empty mask). */
    static SparseMask fromDense(const Matrix &mask);

    /** Scatter back to a dense 0/1 matrix: O(rows * cols) memory. */
    Matrix toDense() const;

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    /**
     * No rows: the "no omission" mask an AttentionHook returns for dense
     * attention. A mask with rows but no connections is not empty.
     */
    bool empty() const { return rows_ == 0; }

    /** Selected key ids of one query row (sorted ascending). */
    const std::vector<uint32_t> &row(size_t r) const { return ids_[r]; }

    /** Replace one row's selection (kept sorted). */
    void setRow(size_t r, std::vector<uint32_t> ids);

    /**
     * Replace one row's selection with ids already strictly ascending
     * (as topkRow emits them): checked in one pass, never sorted.
     * Distinct rows may be set from different threads.
     */
    void setSortedRow(size_t r, std::vector<uint32_t> ids);

    /** Append one connection; caller must finish with sortRows(). */
    void addConnection(size_t r, uint32_t c) { ids_[r].push_back(c); }

    /** Sort and deduplicate every row. */
    void sortRows();

    /** Total number of selected connections. */
    uint64_t nnz() const;

    /** nnz / (rows * cols). */
    double density() const;

    /** True when every row selects the same number of keys. */
    bool rowBalanced() const;

    /** Number of *distinct* keys selected by any row. */
    size_t distinctKeys() const;

    /** True if the connection (r, c) is selected (binary search). */
    bool contains(size_t r, uint32_t c) const;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<std::vector<uint32_t>> ids_;
};

} // namespace dota
