/**
 * @file
 * Implementation of incremental decoding.
 */
#include "nn/decode.hpp"

#include <algorithm>
#include <cstring>

#include "common/crc32.hpp"
#include "nn/infer_block.hpp"

namespace dota {

void
KvCache::append(const Matrix &k_rows, const Matrix &v_rows)
{
    DOTA_ASSERT(k_rows.rows() == v_rows.rows(),
                "K/V row counts differ: {} vs {}", k_rows.rows(),
                v_rows.rows());
    k.appendRows(k_rows);
    v.appendRows(v_rows);
}

size_t
kvBytes(const DecodeState &state)
{
    size_t bytes = 0;
    for (const KvCache &cache : state.layers)
        bytes += cache.bytes();
    return bytes;
}

std::vector<uint32_t>
sealKv(const DecodeState &state)
{
    std::vector<uint32_t> seals;
    seals.reserve(state.layers.size());
    for (const KvCache &cache : state.layers) {
        uint32_t crc = crc32(cache.k.data(),
                             cache.k.size() * sizeof(float));
        crc = crc32(cache.v.data(), cache.v.size() * sizeof(float),
                    crc);
        seals.push_back(crc);
    }
    return seals;
}

bool
verifyKv(const DecodeState &state, const std::vector<uint32_t> &seals)
{
    return sealKv(state) == seals;
}

void
corruptKv(DecodeState &state, size_t layer, KvFault mode)
{
    DOTA_ASSERT(layer < state.layers.size(),
                "corruptKv: layer {} out of range", layer);
    KvCache &cache = state.layers[layer];
    DOTA_ASSERT(cache.length() > 0, "corruptKv: empty cache");
    switch (mode) {
      case KvFault::BitFlip: {
        float &x = cache.k.data()[0];
        uint32_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        bits ^= 1u << 12; // a mantissa bit: value changes, stays finite
        std::memcpy(&x, &bits, sizeof bits);
        break;
      }
      case KvFault::ZeroRow:
        std::fill(cache.k.row(0), cache.k.row(0) + cache.k.cols(),
                  0.0f);
        break;
      case KvFault::TornWrite:
        // Half of the last V row gets plausible-looking new values;
        // only the stale seal betrays the torn update.
        for (size_t j = 0; j < cache.v.cols() / 2 + 1; ++j)
            cache.v.row(cache.v.rows() - 1)[j] += 0.0625f;
        break;
    }
}

KvTransfer
exportKv(const DecodeState &state)
{
    KvTransfer transfer;
    transfer.seals = sealKv(state);
    transfer.state = state; // deep copy: the source may die after this
    return transfer;
}

bool
importKv(const KvTransfer &transfer, DecodeState &dst)
{
    // Verify-on-arrival: the payload must still match the seals taken
    // at departure. On mismatch the receiver keeps its own state — the
    // caller falls back to re-decoding the prefix.
    if (!verifyKv(transfer.state, transfer.seals))
        return false;
    dst = transfer.state;
    return true;
}

Matrix
decodeStep(CausalLM &model, DecodeState &state, int token,
           double retention)
{
    const TransformerConfig &cfg = model.config();
    if (state.layers.size() != cfg.layers)
        state.reset(cfg.layers);
    Matrix h = model.embed({token}, state.position);
    BlockStep step;
    step.retention = retention;
    for (size_t l = 0; l < cfg.layers; ++l) {
        step.cache = &state.layers[l];
        h = inferBlock(*model.blocks()[l], h, step);
    }
    ++state.position;
    return matmul(h, model.lmHead().weight().value);
}

std::vector<int>
generate(CausalLM &model, const std::vector<int> &prefix, size_t steps,
         double retention, double temperature, uint64_t seed)
{
    DecodeState state;
    state.reset(model.config().layers);
    return sampleContinuation(
        [&](int tok) { return decodeStep(model, state, tok, retention); },
        prefix, steps, model.config().max_seq, temperature, seed);
}

std::vector<int>
sampleContinuation(const std::function<Matrix(int)> &step,
                   const std::vector<int> &prefix, size_t steps,
                   size_t max_seq, double temperature, uint64_t seed)
{
    DOTA_ASSERT(!prefix.empty(), "generation needs a non-empty prefix");
    Matrix logits;
    for (int tok : prefix)
        logits = step(tok);
    size_t fed = prefix.size();

    Rng rng(seed);
    std::vector<int> out;
    out.reserve(steps);
    for (size_t s = 0; s < steps; ++s) {
        int next;
        if (temperature <= 0.0) {
            next = rowArgmax(logits)[0];
        } else {
            Matrix scaled = scale(logits,
                                  static_cast<float>(1.0 / temperature));
            const Matrix probs = rowSoftmax(scaled);
            const double u = rng.uniform();
            double acc = 0.0;
            next = static_cast<int>(probs.cols()) - 1;
            for (size_t c = 0; c < probs.cols(); ++c) {
                acc += probs(0, c);
                if (u < acc) {
                    next = static_cast<int>(c);
                    break;
                }
            }
        }
        out.push_back(next);
        if (fed >= max_seq)
            break;
        logits = step(next);
        ++fed;
    }
    return out;
}

} // namespace dota
