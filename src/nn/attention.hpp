/**
 * @file
 * Multi-head self-attention with detector interception.
 *
 * Implements Eq. 1-3 of the paper: Q,K,V = X W_Q, X W_K, X W_V;
 * A = SoftMax(QK^T / sqrt(d_k)) (optionally masked by a hook and/or a
 * causal constraint); Z = A V; out = Z W_O. Backward is hand-derived and
 * verified by finite differences in the test suite.
 *
 * Each head runs on one of two paths, picked by one rule from the
 * hook's needs, its mask and the sequence length
 * (nn/attention_backend.hpp): dense (S and A materialized) or sparse
 * (the exact row kernel of tensor/rows_attention.hpp, over each query
 * row's kept keys). Both give the same bits; only the dense path
 * captures S/A, so the probe accessors below and backward() depend on
 * it.
 */
#pragma once

#include <vector>

#include "nn/attention_backend.hpp"
#include "nn/attention_hook.hpp"
#include "nn/param.hpp"
#include "tensor/ops.hpp"

namespace dota {

/** Multi-head self-attention layer. */
class MultiHeadAttention : public Module
{
  public:
    /**
     * @param name    parameter prefix
     * @param layer   layer index reported to the hook
     * @param dim     model dimension d
     * @param heads   number of attention heads (must divide d)
     * @param rng     weight initializer
     * @param causal  apply autoregressive masking (decoder blocks)
     */
    MultiHeadAttention(const std::string &name, size_t layer, size_t dim,
                       size_t heads, Rng &rng, bool causal = false);

    /** Install (or clear, with nullptr) the attention interceptor. */
    void setHook(AttentionHook *hook) { hook_ = hook; }

    /** Currently installed interceptor (nullptr when none). */
    AttentionHook *hook() const { return hook_; }

    /** Forward over (n x d); returns (n x d). */
    Matrix forward(const Matrix &x);

    /** Backward; returns dL/dx. Invalid after a non-dense forward. */
    Matrix backward(const Matrix &dy);

    /**
     * Force the dense path even when the installed hook permits the
     * sparse one (wantsFullScores() == false). Measurement code that
     * reads lastScores()/lastAttention() — detection-quality metrics,
     * score-distribution probes — and the trainers (backward needs S/A)
     * set this around their forwards.
     */
    void setForceDense(bool force) { force_dense_ = force; }

    void collectParams(std::vector<Parameter *> &out) override;

    size_t layer() const { return layer_; }
    size_t heads() const { return heads_; }
    size_t headDim() const { return head_dim_; }
    bool causal() const { return causal_; }

    /**
     * Attention-probability matrices from the last forward, per head.
     * Empty for heads that took the sparse path.
     */
    const std::vector<Matrix> &lastAttention() const { return a_; }

    /**
     * Raw score matrices S = QK^T from the last forward, per head.
     * Empty for heads that took the sparse path.
     */
    const std::vector<Matrix> &lastScores() const { return s_raw_; }

    /**
     * Hook-selected masks applied in the last forward, as CSR rows
     * (empty when the hook kept everything). The causal constraint is
     * not recorded here: it is implicit (see causal()).
     */
    const std::vector<SparseMask> &lastMasks() const { return masks_; }

    /**
     * Path each head of the last forward took. backward() is invalid
     * when any head took the sparse path.
     */
    const std::vector<AttnBackendKind> &lastBackends() const
    {
        return head_backends_;
    }

    /** Weight accessors (used by the incremental decode path). */
    const Matrix &wq() const { return wq_.value; }
    const Matrix &wk() const { return wk_.value; }
    const Matrix &wv() const { return wv_.value; }
    const Matrix &wo() const { return wo_.value; }

    /** Columns of head @p h in @p m (n x d): the head's n x dh slice. */
    Matrix headSlice(const Matrix &m, size_t h) const;

  private:
    void addHeadSlice(Matrix &dst, const Matrix &src, size_t h) const;

    size_t layer_;
    size_t dim_;
    size_t heads_;
    size_t head_dim_;
    bool causal_;
    Parameter wq_, wk_, wv_, wo_;
    AttentionHook *hook_ = nullptr;
    bool force_dense_ = false;

    // Cached activations for backward.
    Matrix x_, q_, k_, v_, z_;
    std::vector<Matrix> s_raw_; ///< per-head raw scores QK^T
    std::vector<Matrix> a_;     ///< per-head attention probabilities
    std::vector<SparseMask> masks_; ///< per-head hook masks (may be empty)
    std::vector<AttnBackendKind> head_backends_; ///< per-head dispatch
};

} // namespace dota
