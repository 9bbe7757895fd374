/**
 * @file
 * End-to-end transformer models built from the layer stack: a sequence
 * classifier (the LRA-style benchmarks and the QA proxy task) and a causal
 * language model (the GPT-2 / WikiText-103 proxy task).
 */
#pragma once

#include <memory>
#include <vector>

#include "nn/adam.hpp"
#include "nn/embedding.hpp"
#include "nn/encoder.hpp"
#include "nn/loss.hpp"

namespace dota {

/** Shape of a transformer stack. */
struct TransformerConfig
{
    size_t in_dim = 16;    ///< input feature dim (classifier only)
    size_t dim = 64;       ///< model dimension d
    size_t heads = 4;      ///< attention heads
    size_t layers = 2;     ///< encoder blocks
    size_t ffn_dim = 128;  ///< FFN hidden dim
    size_t classes = 2;    ///< output classes (classifier only)
    size_t vocab = 64;     ///< vocabulary (LM only)
    size_t max_seq = 512;  ///< max sequence length (LM positional table)
    Activation act = Activation::GELU;
    uint64_t seed = 1;     ///< weight-init seed

    size_t headDim() const { return dim / heads; }
};

/**
 * What both models share: the shape, the weight-init stream, the block
 * stack and the attention controls that act on every block. Each model
 * draws its own layers from init_rng_ first and then calls buildBlocks(),
 * so its RNG draw order — and so every initial weight — is its own.
 */
class TransformerStack : public Module
{
  public:
    /** Install an attention hook into every block. */
    void setHook(AttentionHook *hook);

    /**
     * Force dense attention in every block (see
     * MultiHeadAttention::setForceDense): measurement code that reads
     * lastScores()/lastAttention() sets this around its forwards.
     */
    void setForceDense(bool force);

    /**
     * True when any block carries an attention hook. Hooked models are
     * not replicable for batch parallelism (the hook is installed on this
     * instance only), so the trainer falls back to serial batches.
     */
    bool hasHook() const;

    const TransformerConfig &config() const { return cfg_; }
    std::vector<std::unique_ptr<EncoderBlock>> &blocks() { return blocks_; }

  protected:
    explicit TransformerStack(const TransformerConfig &cfg)
        : cfg_(cfg), init_rng_(cfg.seed)
    {}

    /** Append cfg.layers blocks named "<prefix><l>", drawn from init_rng_. */
    void buildBlocks(const char *prefix, bool causal);

    TransformerConfig cfg_;
    Rng init_rng_;
    std::vector<std::unique_ptr<EncoderBlock>> blocks_;
    size_t last_n_ = 0; ///< sequence length of the last forward
};

/**
 * Encoder-based sequence classifier: input projection, L encoder blocks,
 * mean pooling, linear head. Inputs are continuous token feature vectors
 * (the synthetic workloads emit these directly).
 */
class TransformerClassifier : public TransformerStack
{
  public:
    explicit TransformerClassifier(const TransformerConfig &cfg);

    /** Forward over (n x in_dim) features; returns logits (1 x classes). */
    Matrix forward(const Matrix &features);

    /** Backward from dL/dlogits (1 x classes). */
    void backward(const Matrix &dlogits);

    void collectParams(std::vector<Parameter *> &out) override;

    /** Accessors for the int8 inference path (nn/int8_infer.hpp). */
    LinearLayer &inputLayer() { return input_; }
    LinearLayer &headLayer() { return head_; }

  private:
    LinearLayer input_;
    LinearLayer head_;
};

/**
 * Decoder-only causal language model: token + learned positional
 * embeddings, L causal blocks, tied-free output head. Perplexity on a
 * synthetic grammar stands in for WikiText-103 (see DESIGN.md).
 */
class CausalLM : public TransformerStack
{
  public:
    explicit CausalLM(const TransformerConfig &cfg);

    /** Forward over token ids; returns logits (n x vocab). */
    Matrix forward(const std::vector<int> &ids);

    /** Backward from dL/dlogits (n x vocab). */
    void backward(const Matrix &dlogits);

    /**
     * Convenience: mean next-token cross-entropy of @p ids (position i
     * predicts token i+1) plus gradient injection when @p train is true.
     */
    double lmLoss(const std::vector<int> &ids, bool train);

    void collectParams(std::vector<Parameter *> &out) override;

    /**
     * Token + learned position embedding of @p ids placed at positions
     * [start, start + ids.size()); fatal past max_seq. Shared by the
     * full forward and the incremental decode paths.
     */
    Matrix embed(const std::vector<int> &ids, size_t start = 0);

    /** Accessors for the incremental decode path. */
    EmbeddingLayer &tokenEmbedding() { return tok_; }
    const Matrix &positionTable() const { return pos_.value; }
    LinearLayer &lmHead() { return head_; }

  private:
    EmbeddingLayer tok_;
    Parameter pos_; ///< max_seq x dim learned positional table
    LinearLayer head_;
};

} // namespace dota
