/**
 * @file
 * Implementation of detection-quality metrics.
 */
#include "detect/metrics.hpp"

#include <cmath>

#include "tensor/ops.hpp"
#include "tensor/topk.hpp"

namespace dota {

DetectionQuality
evaluateDetection(TransformerClassifier &model, const SyntheticTask &task,
                  AttentionHook &hook, size_t samples, double retention,
                  uint64_t seed)
{
    model.setHook(&hook);
    // Quality metrics compare the mask against the full score matrix, so
    // the sparse inference path (which never materializes S) must be
    // disabled for these probe forwards.
    model.setForceDense(true);
    Rng rng(seed);
    DetectionQuality q;
    size_t measured = 0;
    for (size_t s = 0; s < samples; ++s) {
        const Sample smp = task.sample(rng);
        model.forward(smp.features);
        for (auto &blk : model.blocks()) {
            auto &attn = blk->attention();
            const auto &scores = attn.lastScores();
            const auto &masks = attn.lastMasks();
            for (size_t h = 0; h < scores.size(); ++h) {
                if (masks[h].empty())
                    continue; // dense head: nothing to measure
                const size_t n = scores[h].rows();
                // Floor rule, as OracleDetector (keepCount rounds).
                const size_t k = std::max<size_t>(
                    1, static_cast<size_t>(
                           retention * static_cast<double>(n)));
                // Probe sizes only: the recalls compare dense matrices.
                const Matrix mask = masks[h].toDense();
                q.recall += topkRecall(scores[h], mask, k);
                const float inv_sqrt_dk =
                    1.0f / std::sqrt(static_cast<float>(attn.headDim()));
                q.mass_recall += attentionMassRecall(
                    scale(scores[h], inv_sqrt_dk), mask);
                q.density += masks[h].density();
                ++measured;
            }
        }
    }
    model.setForceDense(false);
    model.setHook(nullptr);
    if (measured) {
        q.recall /= static_cast<double>(measured);
        q.mass_recall /= static_cast<double>(measured);
        q.density /= static_cast<double>(measured);
    }
    return q;
}

std::vector<SparseMask>
harvestMasks(TransformerClassifier &model)
{
    std::vector<SparseMask> out;
    for (auto &blk : model.blocks()) {
        auto &attn = blk->attention();
        for (const SparseMask &m : attn.lastMasks()) {
            if (m.empty()) {
                // Dense: every connection selected. Recover the sequence
                // length from any head that has data (sparse-path heads
                // leave their score matrix empty).
                size_t n = 0;
                for (const SparseMask &mm : attn.lastMasks())
                    if (!mm.empty())
                        n = mm.rows();
                for (const Matrix &s : attn.lastScores())
                    if (!s.empty())
                        n = s.rows();
                SparseMask full(n, n);
                std::vector<uint32_t> all(n);
                for (size_t c = 0; c < n; ++c)
                    all[c] = static_cast<uint32_t>(c);
                for (size_t r = 0; r < n; ++r)
                    full.setRow(r, all);
                out.push_back(std::move(full));
            } else {
                out.push_back(m);
            }
        }
    }
    return out;
}

} // namespace dota
