/**
 * @file
 * Incremental (KV-cached) autoregressive decoding — the software
 * counterpart of the decoder processing in Section 4.4.
 *
 * decodeStep() runs one new token through every block with the
 * inference block step (nn/infer_block.hpp) against cached key/value
 * matrices, optionally keeping only the strongest `retention` fraction
 * of past connections (row-balanced top-k, as the hardware comparator
 * would after detection). The dense step is bit-identical to the
 * matching row of the full causal forward, which the test suite
 * asserts with EXPECT_EQ.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "nn/transformer.hpp"

namespace dota {

/** Per-layer key/value cache (rows append per generated token). */
struct KvCache
{
    Matrix k; ///< t x dim
    Matrix v; ///< t x dim

    size_t length() const { return k.rows(); }

    /** KV bytes held (the K + V payload). */
    size_t bytes() const { return (k.size() + v.size()) * sizeof(float); }

    /** Append projected rows (same count) to both caches, in place. */
    void append(const Matrix &k_rows, const Matrix &v_rows);
};

/** Decoding session state for a CausalLM. */
struct DecodeState
{
    std::vector<KvCache> layers;
    size_t position = 0;

    /** Prepare for a model with @p num_layers layers. */
    void
    reset(size_t num_layers)
    {
        layers.assign(num_layers, KvCache{});
        position = 0;
    }
};

/** Total KV bytes held by @p state across all layers. */
size_t kvBytes(const DecodeState &state);

// KV integrity (DESIGN.md §14) ------------------------------------------
//
// The serving engine's paged allocator tracks page seals at arena
// grain; these helpers give the same contract to a real DecodeState:
// seal the K/V payload after a write, verify before trusting it, and
// recover by re-decoding the prefix — which, decoding being
// deterministic and greedy, reproduces the continuation bit-for-bit.

/** How corruptKv poisons one layer's cache (chaos-testing hook). */
enum class KvFault
{
    BitFlip,   ///< one mantissa bit of one cached key flips
    ZeroRow,   ///< a whole cached K row is wiped to zeros
    TornWrite, ///< new values land in a V row without a re-seal
};

/** CRC32 seal per layer over the K then V payload of @p state. */
std::vector<uint32_t> sealKv(const DecodeState &state);

/** Whether @p state still matches @p seals (layer count included). */
bool verifyKv(const DecodeState &state,
              const std::vector<uint32_t> &seals);

/**
 * Corrupt layer @p layer of @p state in place (deterministically).
 * The seals taken before are NOT updated — verifyKv must catch it.
 */
void corruptKv(DecodeState &state, size_t layer, KvFault mode);

// Live KV migration (DESIGN.md §15) -------------------------------------
//
// Model-grain counterpart of the serving arena's exportSeq/importSeq:
// a decode session's whole K/V state travels with its per-layer seals,
// and the receiver re-verifies before adopting it — so a migrated
// continuation is bit-identical to the uninterrupted run, and a
// transfer corrupted in flight is refused whole.

/** A decode session in transit: per-layer seals + the K/V payload. */
struct KvTransfer
{
    std::vector<uint32_t> seals; ///< sealKv() at departure
    DecodeState state;           ///< deep copy of the session
};

/** Package @p state for migration (seals taken at departure). */
KvTransfer exportKv(const DecodeState &state);

/**
 * Adopt @p transfer into @p dst after re-verifying every layer seal
 * (verify-on-arrival). Returns false — with @p dst untouched — when
 * any seal mismatches; true once @p dst holds the migrated session.
 */
bool importKv(const KvTransfer &transfer, DecodeState &dst);

/**
 * Feed one token through @p model incrementally; returns the logits row
 * (1 x vocab). @p retention < 1 keeps only the top fraction of cached
 * connections per head (1.0 = dense).
 */
Matrix decodeStep(CausalLM &model, DecodeState &state, int token,
                  double retention = 1.0);

/**
 * Greedy (temperature == 0) or temperature sampling continuation of
 * @p prefix for @p steps tokens. Returns only the generated tokens.
 */
std::vector<int> generate(CausalLM &model, const std::vector<int> &prefix,
                          size_t steps, double retention = 1.0,
                          double temperature = 0.0, uint64_t seed = 1);

/**
 * The sampling loop behind generate() and int8Generate(): feed
 * @p prefix through @p step (one token in, its 1 x vocab logits out),
 * then pick up to @p steps tokens — greedy at temperature <= 0, seeded
 * softmax sampling otherwise — stopping once @p max_seq tokens have
 * been fed. Returns only the generated tokens.
 */
std::vector<int> sampleContinuation(const std::function<Matrix(int)> &step,
                                    const std::vector<int> &prefix,
                                    size_t steps, size_t max_seq,
                                    double temperature, uint64_t seed);

} // namespace dota
