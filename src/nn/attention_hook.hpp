/**
 * @file
 * Hook interface through which a Detector intercepts self-attention.
 *
 * The multi-head attention layer knows nothing about DOTA's detection
 * algorithm: it simply asks an installed AttentionHook for a sparsity mask
 * before computing attention weights, lets the hook observe the true raw
 * scores S = QK^T (so the hook can maintain its estimation loss), and adds
 * whatever score-gradient the hook reports into its own backward pass.
 * That is exactly the structure of the joint optimization in Section 3.2:
 * L = L_model + lambda * L_MSE, where the lambda * dL_MSE/dS term enters
 * the model's backward through this interface.
 *
 * The mask travels as CSR rows (selectSparseMask). The layers ask for
 * that form only and scatter it to a dense 0/1 matrix just for the dense
 * path, so a hook that selects straight into CSR rows (DotaDetector)
 * never builds an n x n matrix on the inference path. Hooks that only
 * override the dense selectMask keep working through the default
 * selectSparseMask, a fromDense adapter.
 */
#pragma once

#include <cstddef>

#include "tensor/matrix.hpp"
#include "tensor/sparse_mask.hpp"

namespace dota {

/** Interceptor installed into MultiHeadAttention layers. */
class AttentionHook
{
  public:
    virtual ~AttentionHook() = default;

    /**
     * Called once per layer forward with the layer input (n x d), before
     * any head is processed. Detectors compute X*P (and its quantized
     * form) here so all heads share it.
     */
    virtual void beginLayer(size_t layer, const Matrix &x) = 0;

    /**
     * Observe the projected query/key matrices (n x head_dim) of one head
     * before mask selection. DOTA's detector ignores this — its estimate
     * may only use X (Section 3.1) — but the ELSA baseline hashes the
     * real Q/K here, and the oracle "detector" uses them to compute true
     * scores. Default: no-op.
     */
    virtual void
    observeQK(size_t layer, size_t head, const Matrix &q, const Matrix &k)
    {
        (void)layer;
        (void)head;
        (void)q;
        (void)k;
    }

    /**
     * Produce the 0/1 keep-mask (n x n) for one head. Must not look at the
     * true scores — only at whatever state beginLayer derived from X. An
     * empty matrix means "no omission" (dense attention).
     *
     * @param causal  when true the mask must additionally be lower
     *                triangular (decoder processing).
     */
    virtual Matrix selectMask(size_t layer, size_t head, bool causal) = 0;

    /**
     * The same mask as CSR rows (n rows of ascending key ids); an empty
     * SparseMask means "no omission". This is what MultiHeadAttention
     * and inferBlock call. The default adapts selectMask() with
     * SparseMask::fromDense; hooks that can select row by row override
     * it and make selectMask() the scatter of their own CSR.
     */
    virtual SparseMask
    selectSparseMask(size_t layer, size_t head, bool causal)
    {
        return SparseMask::fromDense(selectMask(layer, head, causal));
    }

    /**
     * Observe the true raw scores S = QK^T for one head (post-mask
     * computation). Detectors accumulate L_MSE = ||S - S_est||^2 here.
     */
    virtual void observeScores(size_t layer, size_t head,
                               const Matrix &s_true) = 0;

    /**
     * Whether this hook needs the full dense score matrix every forward.
     * When a hook returns false and selected a non-empty mask, the
     * attention layer is free to take the sparse inference path: scores
     * are computed only at kept coordinates (tensor/rows_attention.hpp),
     * observeScores() is skipped, and lastScores()/lastAttention() stay
     * empty for that head. This is the software analogue of the
     * accelerator's omission stage — work the detector rules out is never
     * issued. Hooks that maintain a training-time estimation loss (or
     * otherwise inspect S) must return true. Default: true (conservative).
     */
    virtual bool wantsFullScores() const { return true; }

    /**
     * Gradient of the hook's auxiliary loss w.r.t. the true raw scores S
     * of this head (already weighted by lambda), or an empty matrix when
     * the hook is not training. Consumed by the attention backward.
     */
    virtual Matrix scoreGradient(size_t layer, size_t head) = 0;
};

} // namespace dota
