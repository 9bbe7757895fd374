/**
 * @file
 * Implementation of the numerical guard rails.
 */
#include "train/guardrails.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace dota {

namespace {

bool
allFinite(const Matrix &m)
{
    const float *p = m.data();
    for (size_t i = 0; i < m.size(); ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

} // namespace

bool
StepGuard::shouldSkip(double loss, const std::vector<Parameter *> &params)
{
    bool bad = false;
    if (!std::isfinite(loss)) {
        ++stats_.nonfinite_loss_steps;
        bad = true;
    }
    // Check the gradients even when the loss already failed: the
    // counters tell apart "loss overflowed" from "gradients poisoned",
    // which matters when diagnosing a blown-up run.
    bool grads_ok = true;
    for (const Parameter *p : params)
        if (!allFinite(p->grad)) {
            grads_ok = false;
            break;
        }
    if (!grads_ok) {
        ++stats_.nonfinite_grad_steps;
        bad = true;
    }
    if (!bad) {
        stats_.consecutive_skips = 0;
        return false;
    }
    ++stats_.skipped_steps;
    ++stats_.consecutive_skips;
    if (stats_.consecutive_skips > cfg_.max_consecutive_skips)
        DOTA_FATAL("numerical guard rail: {} consecutive steps with "
                   "non-finite loss/gradients (limit {}) — the model "
                   "state is poisoned beyond skip-step recovery; restart "
                   "from an earlier checkpoint with a lower learning "
                   "rate",
                   stats_.consecutive_skips, cfg_.max_consecutive_skips);
    return true;
}

} // namespace dota
