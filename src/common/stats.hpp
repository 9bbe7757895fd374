/**
 * @file
 * Running summary statistics (Welford) for sampled quantities, e.g. the
 * fleet simulator's completion-time distribution.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace dota {

/** Running summary (count/mean/min/max/stddev) of a sampled quantity. */
class Distribution
{
  public:
    Distribution() = default;
    explicit Distribution(std::string name, std::string desc = "")
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    /** Record one sample using Welford's online update. */
    void
    sample(double v)
    {
        ++count_;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
        const double delta = v - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (v - mean_);
        sum_ += v;
    }

    void
    reset()
    {
        count_ = 0;
        mean_ = m2_ = sum_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    double
    variance() const
    {
        return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::string desc_;
    uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace dota
