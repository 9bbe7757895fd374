/**
 * @file
 * Implementation of the end-to-end transformer models.
 */
#include "nn/transformer.hpp"

namespace dota {

void
TransformerStack::buildBlocks(const char *prefix, bool causal)
{
    blocks_.reserve(cfg_.layers);
    for (size_t l = 0; l < cfg_.layers; ++l)
        blocks_.push_back(std::make_unique<EncoderBlock>(
            format("{}{}", prefix, l), l, cfg_.dim, cfg_.heads,
            cfg_.ffn_dim, init_rng_, cfg_.act, causal));
}

void
TransformerStack::setHook(AttentionHook *hook)
{
    for (auto &blk : blocks_)
        blk->attention().setHook(hook);
}

void
TransformerStack::setForceDense(bool force)
{
    for (auto &blk : blocks_)
        blk->attention().setForceDense(force);
}

bool
TransformerStack::hasHook() const
{
    for (const auto &blk : blocks_)
        if (blk->attention().hook())
            return true;
    return false;
}

TransformerClassifier::TransformerClassifier(const TransformerConfig &cfg)
    : TransformerStack(cfg),
      input_("input", cfg.in_dim, cfg.dim, init_rng_),
      head_("head", cfg.dim, cfg.classes, init_rng_)
{
    buildBlocks("enc", /*causal=*/false);
}

Matrix
TransformerClassifier::forward(const Matrix &features)
{
    last_n_ = features.rows();
    Matrix h = input_.forward(features);
    for (auto &blk : blocks_)
        h = blk->forward(h);
    return head_.forward(meanRows(h));
}

void
TransformerClassifier::backward(const Matrix &dlogits)
{
    const Matrix dpooled = head_.backward(dlogits);
    // Broadcast pooling gradient back over tokens.
    Matrix dh(last_n_, cfg_.dim);
    const float inv = 1.0f / static_cast<float>(last_n_);
    for (size_t i = 0; i < last_n_; ++i)
        for (size_t j = 0; j < cfg_.dim; ++j)
            dh(i, j) = dpooled(0, j) * inv;
    for (size_t l = blocks_.size(); l-- > 0;)
        dh = blocks_[l]->backward(dh);
    input_.backward(dh);
}

void
TransformerClassifier::collectParams(std::vector<Parameter *> &out)
{
    input_.collectParams(out);
    for (auto &blk : blocks_)
        blk->collectParams(out);
    head_.collectParams(out);
}

CausalLM::CausalLM(const TransformerConfig &cfg)
    : TransformerStack(cfg), tok_("tok", cfg.vocab, cfg.dim, init_rng_),
      pos_("pos", Matrix::randomNormal(cfg.max_seq, cfg.dim, init_rng_,
                                       0.0f, 0.02f)),
      head_("lm_head", cfg.dim, cfg.vocab, init_rng_, /*bias=*/false)
{
    buildBlocks("dec", /*causal=*/true);
}

Matrix
CausalLM::embed(const std::vector<int> &ids, size_t start)
{
    DOTA_ASSERT(start + ids.size() <= cfg_.max_seq,
                "sequence end {} exceeds max_seq {}", start + ids.size(),
                cfg_.max_seq);
    Matrix h = tok_.forward(ids);
    for (size_t i = 0; i < h.rows(); ++i)
        for (size_t j = 0; j < h.cols(); ++j)
            h(i, j) += pos_.value(start + i, j);
    return h;
}

Matrix
CausalLM::forward(const std::vector<int> &ids)
{
    last_n_ = ids.size();
    Matrix h = embed(ids);
    for (auto &blk : blocks_)
        h = blk->forward(h);
    return head_.forward(h);
}

void
CausalLM::backward(const Matrix &dlogits)
{
    Matrix dh = head_.backward(dlogits);
    for (size_t l = blocks_.size(); l-- > 0;)
        dh = blocks_[l]->backward(dh);
    for (size_t i = 0; i < last_n_; ++i)
        for (size_t j = 0; j < cfg_.dim; ++j)
            pos_.grad(i, j) += dh(i, j);
    tok_.backward(dh);
}

double
CausalLM::lmLoss(const std::vector<int> &ids, bool train)
{
    const Matrix logits = forward(ids);
    Matrix dlogits;
    const double loss =
        softmaxCrossEntropy(logits, nextTokenLabels(ids), dlogits);
    if (train)
        backward(dlogits);
    return loss;
}

void
CausalLM::collectParams(std::vector<Parameter *> &out)
{
    tok_.collectParams(out);
    out.push_back(&pos_);
    for (auto &blk : blocks_)
        blk->collectParams(out);
    head_.collectParams(out);
}

} // namespace dota
