/**
 * @file
 * Tests for incremental (KV-cached) decoding: exact equivalence with
 * the full causal forward, retention behaviour, and generation.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "nn/attention_backend.hpp"
#include "nn/decode.hpp"
#include "workloads/synthetic_task.hpp"
#include "workloads/trainer.hpp"

namespace dota {
namespace {

TransformerConfig
lmCfg()
{
    TransformerConfig cfg;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.ffn_dim = 32;
    cfg.vocab = 20;
    cfg.max_seq = 40;
    cfg.seed = 5;
    return cfg;
}

TEST(KvCache, AppendGrows)
{
    KvCache cache;
    EXPECT_EQ(cache.length(), 0u);
    Matrix k(1, 4, 1.0f), v(1, 4, 2.0f);
    cache.append(k, v);
    cache.append(k, v);
    EXPECT_EQ(cache.length(), 2u);
    EXPECT_FLOAT_EQ(cache.k(1, 3), 1.0f);
    EXPECT_FLOAT_EQ(cache.v(0, 0), 2.0f);
}

TEST(KvCache, MassTracksAttentionAndStaysInSync)
{
    CausalLM model(lmCfg());
    DecodeState state;
    state.reset(model.config().layers);
    const std::vector<int> ids{3, 7, 1, 12, 5};
    for (int tok : ids)
        decodeStep(model, state, tok);
    const size_t heads = lmCfg().heads;
    for (const KvCache &cache : state.layers) {
        ASSERT_EQ(cache.mass.size(), cache.length());
        // Each decode step distributes `heads` units of softmax mass
        // over the cached positions; 5 steps deposit 5 * heads total.
        double total = 0.0;
        for (double m : cache.mass) {
            EXPECT_GE(m, 0.0);
            total += m;
        }
        EXPECT_NEAR(total, double(ids.size() * heads), 1e-3);
    }
}

TEST(KvCache, EvictWeakKeepsStrongestInCausalOrder)
{
    KvCache cache;
    for (int i = 0; i < 5; ++i) {
        Matrix k(1, 4, float(i)), v(1, 4, float(10 + i));
        cache.append(k, v);
    }
    cache.mass = {0.9, 0.1, 0.5, 0.1, 0.7};
    EXPECT_EQ(evictWeak(cache, 3), 2u);
    ASSERT_EQ(cache.length(), 3u);
    // Survivors are rows 0, 2, 4 (top mass), compacted in causal order.
    EXPECT_FLOAT_EQ(cache.k(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(cache.k(1, 0), 2.0f);
    EXPECT_FLOAT_EQ(cache.k(2, 0), 4.0f);
    EXPECT_FLOAT_EQ(cache.v(1, 0), 12.0f);
    EXPECT_EQ(cache.mass, (std::vector<double>{0.9, 0.5, 0.7}));
    // Ties keep the older position: 0.1 vs 0.1 would drop the newer.
    KvCache tied;
    for (int i = 0; i < 3; ++i) {
        Matrix k(1, 2, float(i)), v(1, 2, float(i));
        tied.append(k, v);
    }
    tied.mass = {0.1, 0.1, 0.1};
    EXPECT_EQ(evictWeak(tied, 2), 1u);
    EXPECT_FLOAT_EQ(tied.k(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(tied.k(1, 0), 1.0f);
    // keep >= length is a no-op.
    EXPECT_EQ(evictWeak(tied, 5), 0u);
}

TEST(KvCache, EvictWeakStateShrinksKvBytesAndDecodingContinues)
{
    CausalLM model(lmCfg());
    DecodeState state;
    state.reset(model.config().layers);
    for (int t = 0; t < 12; ++t)
        decodeStep(model, state, t % 20);
    const size_t before = kvBytes(state);
    EXPECT_GT(before, 0u);
    const size_t evicted = evictWeak(state, 0.5);
    // ceil(0.5 * 12) = 6 kept per layer, 6 evicted per layer.
    EXPECT_EQ(evicted, 6u * lmCfg().layers);
    for (const KvCache &cache : state.layers)
        EXPECT_EQ(cache.length(), 6u);
    EXPECT_EQ(kvBytes(state), before / 2);
    // The session keeps decoding on the compacted cache.
    const Matrix logits = decodeStep(model, state, 3);
    ASSERT_EQ(logits.rows(), 1u);
    for (size_t c = 0; c < logits.cols(); ++c)
        EXPECT_TRUE(std::isfinite(logits(0, c)));
}

TEST(Decode, MatchesFullForwardDense)
{
    // Decode reads K/V in place through the same dot / broadcast-FMA
    // kernels as the full forward's dense path, so every logit of
    // every step equals the full forward's row bit for bit.
    CausalLM model(lmCfg());
    const std::vector<int> ids{3, 7, 1, 12, 5, 9, 0, 4};
    const Matrix full = model.forward(ids);

    DecodeState state;
    state.reset(model.config().layers);
    for (size_t t = 0; t < ids.size(); ++t) {
        const Matrix logits = decodeStep(model, state, ids[t]);
        ASSERT_EQ(logits.rows(), 1u);
        for (size_t c = 0; c < logits.cols(); ++c)
            EXPECT_EQ(logits(0, c), full(t, c))
                << "position " << t << " class " << c;
    }
}

TEST(Decode, MatchesFullForwardAtLongContext)
{
    // Past the long-context threshold the full forward takes the row
    // kernel and decode keeps its exact row path: still bit for bit.
    TransformerConfig cfg = lmCfg();
    cfg.max_seq = kLongContextSeqLen + 8;
    CausalLM model(cfg);
    std::vector<int> ids(kLongContextSeqLen + 4);
    for (size_t t = 0; t < ids.size(); ++t)
        ids[t] = static_cast<int>((t * 7 + t / 13) % cfg.vocab);

    ScopedAttnChoice pin(AttnChoice::Auto);
    const Matrix full = model.forward(ids);
    for (const auto &blk : model.blocks())
        for (AttnBackendKind kind : blk->attention().lastBackends())
            EXPECT_EQ(kind, AttnBackendKind::Sparse);

    DecodeState state;
    state.reset(cfg.layers);
    size_t mismatches = 0;
    for (size_t t = 0; t < ids.size(); ++t) {
        const Matrix logits = decodeStep(model, state, ids[t]);
        for (size_t c = 0; c < logits.cols(); ++c)
            mismatches += logits(0, c) != full(t, c);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Decode, StateTracksPosition)
{
    CausalLM model(lmCfg());
    DecodeState state;
    state.reset(2);
    decodeStep(model, state, 1);
    decodeStep(model, state, 2);
    EXPECT_EQ(state.position, 2u);
    EXPECT_EQ(state.layers[0].length(), 2u);
    EXPECT_EQ(state.layers[1].length(), 2u);
}

TEST(Decode, RetentionLimitsConnections)
{
    // With retention well below 1, later tokens attend to fewer cached
    // keys; the output must still be finite and differ from dense.
    CausalLM model(lmCfg());
    const std::vector<int> ids{3, 7, 1, 12, 5, 9, 0, 4, 2, 6};
    DecodeState dense_state, sparse_state;
    dense_state.reset(2);
    sparse_state.reset(2);
    Matrix dense_logits, sparse_logits;
    for (int tok : ids) {
        dense_logits = decodeStep(model, dense_state, tok, 1.0);
        sparse_logits = decodeStep(model, sparse_state, tok, 0.2);
    }
    EXPECT_FALSE(
        Matrix::allClose(dense_logits, sparse_logits, 1e-6));
    for (size_t c = 0; c < sparse_logits.cols(); ++c)
        EXPECT_TRUE(std::isfinite(sparse_logits(0, c)));
}

TEST(Decode, OverflowFatal)
{
    TransformerConfig cfg = lmCfg();
    cfg.max_seq = 3;
    CausalLM model(cfg);
    DecodeState state;
    state.reset(cfg.layers);
    decodeStep(model, state, 1);
    decodeStep(model, state, 1);
    decodeStep(model, state, 1);
    EXPECT_DEATH(decodeStep(model, state, 1), "exceeds max_seq");
}

TEST(Generate, GreedyDeterministic)
{
    CausalLM model(lmCfg());
    const std::vector<int> prefix{3, 7, 1};
    const auto a = generate(model, prefix, 6, 1.0, 0.0);
    const auto b = generate(model, prefix, 6, 1.0, 0.0);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 6u);
    for (int t : a) {
        EXPECT_GE(t, 0);
        EXPECT_LT(t, 20);
    }
}

TEST(Generate, GreedyMatchesFullForwardArgmax)
{
    CausalLM model(lmCfg());
    const std::vector<int> prefix{3, 7, 1, 12};
    const auto gen = generate(model, prefix, 1, 1.0, 0.0);
    const Matrix full = model.forward(prefix);
    EXPECT_EQ(gen[0], rowArgmax(full)[prefix.size() - 1]);
}

TEST(Generate, SamplingSeedControlled)
{
    CausalLM model(lmCfg());
    const std::vector<int> prefix{3, 7};
    const auto a = generate(model, prefix, 8, 1.0, 1.0, /*seed=*/42);
    const auto b = generate(model, prefix, 8, 1.0, 1.0, /*seed=*/42);
    const auto c = generate(model, prefix, 8, 1.0, 1.0, /*seed=*/43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c); // overwhelmingly likely for 8 near-uniform draws
}

TEST(Generate, StopsAtMaxSeq)
{
    TransformerConfig cfg = lmCfg();
    cfg.max_seq = 6;
    CausalLM model(cfg);
    const auto out = generate(model, {1, 2, 3}, 10);
    EXPECT_LE(out.size() + 3, 7u); // prefix + generated <= max_seq + 1
}

TEST(Generate, TrainedGrammarCopiesPayload)
{
    // Train briefly on the copy grammar and check KV-cached generation
    // honours the long-range dependency, as in the lm_generation
    // example but through the incremental path.
    TransformerConfig cfg = lmCfg();
    cfg.vocab = 64;
    cfg.max_seq = 80;
    cfg.dim = 32;
    cfg.ffn_dim = 64;
    CausalLM model(cfg);
    GrammarConfig gc;
    gc.seq_len = 64;
    gc.vocab = 64;
    gc.period = 6; // dense triggers: the copy rule dominates the loss
    SyntheticGrammar grammar(gc);
    LMTrainer trainer(model, grammar, [] {
        TrainConfig t;
        t.steps = 250;
        t.batch = 4;
        return t;
    }());
    trainer.train();

    // Robust statistical check: the probability the model assigns to
    // the copied payload right after a trigger must be far above the
    // ~1/47 uniform share over payload tokens (the tiny model's argmax
    // is not always right this early in training, but its probability
    // mass shifts decisively).
    Rng rng(7);
    double payload_prob = 0.0;
    int trials = 0;
    while (trials < 8) {
        auto prefix = grammar.sample(rng);
        prefix.resize(40);
        int payload = -1;
        for (size_t i = 0; i + 1 < prefix.size(); ++i)
            if (prefix[i] == grammar.triggerToken())
                payload = prefix[i + 1];
        if (payload < 0)
            continue; // no trigger landed in this prefix; redraw
        prefix.push_back(grammar.triggerToken());
        DecodeState state;
        state.reset(model.config().layers);
        Matrix logits;
        for (int tok : prefix)
            logits = decodeStep(model, state, tok);
        const Matrix probs = rowSoftmax(logits);
        payload_prob += probs(0, static_cast<size_t>(payload));
        ++trials;
    }
    payload_prob /= trials;
    EXPECT_GT(payload_prob, 2.0 / 47.0)
        << "no long-range copy signal learned";
}

} // namespace
} // namespace dota
