/**
 * @file
 * Integer-only int8 inference path (DESIGN.md §16): per-tensor symmetric
 * calibration over a trained fp32 model, a quantized execution plan, and
 * full-sequence / incremental-decode forwards whose GEMMs all run on the
 * u8 x s8 kernels of tensor/int8_gemm.hpp with ITA-style integer softmax
 * between QK^T and A*V. Calibration and both forwards run the blocks
 * through the one inference block step (nn/infer_block.hpp).
 *
 * Structure of the quantized block (LinearLayer weights W are held as
 * s8 W^T codes so every GEMM is the kernel's C = A * B^T shape):
 *
 *     x  --u8-->  [x Wq] [x Wk] [x Wv]        (int8 GEMM, fp32 out)
 *     per head:  q --u8--, k --s8--  ->  raw s32 scores
 *                integer softmax     ->  u8 probs in [0, 127]
 *                probs --u8--, v^T --s8--  ->  fp32 z
 *     z  --u8-->  [z Wo]  -> +x -> LayerNorm (fp32)
 *     h1 --u8-->  [h1 W1] -> +b -> GELU/ReLU (fp32)
 *     hid --u8--> [hid W2] -> +b -> +h1 -> LayerNorm (fp32)
 *
 * LayerNorm, residual adds, biases and activations stay fp32 — the
 * standard int8-transformer split: they are O(n*d) next to the O(n*d^2)
 * GEMMs and O(n^2*d) attention that dominate runtime, and keeping them
 * in float preserves accuracy without touching the integer hot loops.
 *
 * Determinism contract: all scales are fixed at calibration time, every
 * integer GEMM is exact (tensor/int8_gemm.hpp), and the fp32 glue is
 * elementwise/per-row. Outputs are therefore bit-identical across
 * SIMD ISAs and DOTA_THREADS values, and the incremental decode path
 * reproduces the full-sequence forward's last row exactly — by
 * arithmetic, where the fp path's identical decode rests on matched
 * reduction orders.
 */
#pragma once

#include <vector>

#include "nn/transformer.hpp"
#include "tensor/int8_gemm.hpp"
#include "tensor/int_softmax.hpp"

namespace dota {

/** Calibrated max |x| per quantization site of one block. */
struct Int8LayerRanges
{
    float x = 0.0f;      ///< block input (Wq/Wk/Wv GEMM A-side)
    float q = 0.0f;      ///< projected queries (u8 grid)
    float k = 0.0f;      ///< projected keys (s8 grid)
    float v = 0.0f;      ///< projected values (s8 grid)
    float z = 0.0f;      ///< concatenated head outputs (Wo A-side)
    float h1 = 0.0f;     ///< post-LN1 (FC1 A-side)
    float hidden = 0.0f; ///< post-activation (FC2 A-side)
};

/** Max |x| statistics from a calibration pass over a trained fp model. */
struct Int8Calibration
{
    float input = 0.0f;   ///< input-projection / first-block A-side
    float final_h = 0.0f; ///< head-GEMM A-side (pooled / last hidden)
    std::vector<Int8LayerRanges> layers;
};

/**
 * Run @p samples (token feature matrices) through the classifier in
 * fp32, recording max |x| at every quantization site. Dense attention:
 * an installed hook is neither consulted nor called.
 */
Int8Calibration calibrateClassifier(TransformerClassifier &model,
                                    const std::vector<Matrix> &samples);

/** LM calibration over token-id sequences (causal attention). */
Int8Calibration calibrateLM(CausalLM &model,
                            const std::vector<std::vector<int>> &samples);

/** One block's quantized weights, activation scales and softmax LUT. */
struct Int8BlockPlan
{
    Int8Tensor wq, wk, wv, wo; ///< d x d weights as s8 W^T codes
    Int8Tensor fc1, fc2;       ///< FFN weights as s8 W^T codes
    float x_scale = 1.0f;      ///< u8 grid (qmax 63)
    float q_scale = 1.0f;      ///< u8 grid
    float k_scale = 1.0f;      ///< s8 grid (qmax 127)
    float v_scale = 1.0f;      ///< s8 grid
    float z_scale = 1.0f;      ///< u8 grid
    float h1_scale = 1.0f;     ///< u8 grid
    float hidden_scale = 1.0f; ///< u8 grid
    IntSoftmaxLut softmax;     ///< built from q_scale*k_scale/sqrt(dh)
};

/**
 * Quantized execution plan: everything int8Forward needs besides the
 * fp32 model itself (which still supplies LayerNorm parameters, biases
 * and embeddings). Built once after calibration; scales never change
 * afterwards (the determinism contract above).
 */
struct Int8Plan
{
    Int8Tensor input;  ///< classifier input projection (empty for LM)
    Int8Tensor head;   ///< classifier head / LM head, s8 W^T codes
    float input_scale = 1.0f;   ///< u8 grid for the first GEMM's A-side
    float final_scale = 1.0f;   ///< u8 grid for the head GEMM's A-side
    std::vector<Int8BlockPlan> blocks;
};

/** Quantize a trained classifier against its calibration. */
Int8Plan quantizeClassifier(TransformerClassifier &model,
                            const Int8Calibration &calib);

/** Quantize a trained LM against its calibration. */
Int8Plan quantizeLM(CausalLM &model, const Int8Calibration &calib);

/**
 * Int8 classifier forward; returns logits (1 x classes). Honors an
 * installed attention hook exactly like the fp path: beginLayer /
 * observeQK see the int8-computed fp activations, selectSparseMask
 * gates the integer softmax (so DOTA-style detectors drive sparsity on
 * the integer path too), and observeScores receives dequantized raw scores
 * when the hook wants them.
 */
Matrix int8Forward(TransformerClassifier &model, const Int8Plan &plan,
                   const Matrix &features);

/** Int8 LM forward over token ids; returns logits (n x vocab). */
Matrix int8Forward(CausalLM &model, const Int8Plan &plan,
                   const std::vector<int> &ids);

/** Per-layer integer KV cache of the int8 block step. */
struct Int8KvCache
{
    size_t dim = 0;   ///< model dim (row width of the code arrays)
    size_t heads = 0;
    std::vector<int8_t> k_codes; ///< t x dim
    std::vector<int8_t> v_codes; ///< t x dim
    /**
     * Per-position, per-head sums of K codes (t x heads): zero-point
     * compensation for the u8 query x s8 key score dot needs the sum
     * over exactly the head's slice of the row.
     */
    std::vector<int32_t> k_head_sums;
    size_t len = 0;

    /**
     * Quantize (quantizeS8Row, the calibrated static scales) and append
     * fp K/V rows of an @p n_heads-head layer.
     */
    void append(const Matrix &k_rows, const Matrix &v_rows, size_t n_heads,
                float k_scale, float v_scale);
};

/** Decoding state for the int8 path. */
struct Int8DecodeState
{
    std::vector<Int8KvCache> layers;
    size_t position = 0;

    void reset(size_t n_layers)
    {
        layers.assign(n_layers, Int8KvCache());
        position = 0;
    }
};

/**
 * Feed one token through the int8 LM incrementally; returns logits
 * (1 x vocab). Bit-identical to row `position` of the full-sequence
 * int8Forward (static scales + exact integer GEMMs — see the header
 * comment).
 */
Matrix int8DecodeStep(CausalLM &model, const Int8Plan &plan,
                      Int8DecodeState &state, int token);

/**
 * Autoregressive int8 generation: greedy at temperature <= 0, seeded
 * softmax sampling otherwise (same policy as the fp generate()).
 */
std::vector<int> int8Generate(CausalLM &model, const Int8Plan &plan,
                              const std::vector<int> &prefix, size_t steps,
                              double temperature = 0.0, uint64_t seed = 1);

} // namespace dota
