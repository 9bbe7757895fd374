/**
 * @file
 * Implementation of the int8 inference path: calibration, plan
 * quantization, full-sequence and incremental forwards.
 */
#include "nn/int8_infer.hpp"

#include <algorithm>
#include <cmath>

#include "nn/infer_block.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"

namespace dota {

namespace {

/** Quantize one block's weights and freeze its activation scales. */
Int8BlockPlan
buildBlockPlan(EncoderBlock &blk, const Int8LayerRanges &r)
{
    MultiHeadAttention &attn = blk.attention();
    auto wscale = [](const Matrix &w) {
        return chooseSymmetricScale(w, 8).scale;
    };
    Int8BlockPlan bp;
    bp.wq = quantizeS8Transposed(attn.wq(), wscale(attn.wq()));
    bp.wk = quantizeS8Transposed(attn.wk(), wscale(attn.wk()));
    bp.wv = quantizeS8Transposed(attn.wv(), wscale(attn.wv()));
    bp.wo = quantizeS8Transposed(attn.wo(), wscale(attn.wo()));
    const Matrix &w1 = blk.fc1().weight().value;
    const Matrix &w2 = blk.fc2().weight().value;
    bp.fc1 = quantizeS8Transposed(w1, wscale(w1));
    bp.fc2 = quantizeS8Transposed(w2, wscale(w2));
    bp.x_scale = symmetricScaleFromMaxAbs(r.x, kU8ActQmax);
    bp.q_scale = symmetricScaleFromMaxAbs(r.q, kU8ActQmax);
    bp.k_scale = symmetricScaleFromMaxAbs(r.k, kS8Qmax);
    bp.v_scale = symmetricScaleFromMaxAbs(r.v, kS8Qmax);
    bp.z_scale = symmetricScaleFromMaxAbs(r.z, kU8ActQmax);
    bp.h1_scale = symmetricScaleFromMaxAbs(r.h1, kU8ActQmax);
    bp.hidden_scale = symmetricScaleFromMaxAbs(r.hidden, kU8ActQmax);
    const float inv_sqrt_dk =
        1.0f / std::sqrt(static_cast<float>(attn.headDim()));
    bp.softmax =
        IntSoftmaxLut(bp.q_scale * bp.k_scale * inv_sqrt_dk);
    return bp;
}

/**
 * A whole sequence through every block in fp32 (no hook: calibration
 * measures the dense model), folding each block's ranges into @p calib.
 */
Matrix
calibrateLayers(std::vector<std::unique_ptr<EncoderBlock>> &blocks,
                Int8Calibration &calib, Matrix h)
{
    for (size_t l = 0; l < blocks.size(); ++l) {
        KvCache cache;
        BlockStep step;
        step.cache = &cache;
        step.ranges = &calib.layers[l];
        h = inferBlock(*blocks[l], h, step);
    }
    return h;
}

/**
 * A whole sequence through every block on the integer kernels, each
 * block honouring the hook installed on its attention layer.
 */
Matrix
int8Layers(std::vector<std::unique_ptr<EncoderBlock>> &blocks,
           const Int8Plan &plan, Matrix h)
{
    DOTA_ASSERT(plan.blocks.size() == blocks.size(),
                "plan covers {} layers, model has {}", plan.blocks.size(),
                blocks.size());
    for (size_t l = 0; l < blocks.size(); ++l) {
        Int8KvCache cache;
        BlockStep step;
        step.plan = &plan.blocks[l];
        step.int8_cache = &cache;
        step.hook = blocks[l]->attention().hook();
        h = inferBlock(*blocks[l], h, step);
    }
    return h;
}

/** The block plans and the head GEMM's plan of either model kind. */
Int8Plan
quantizeBlocks(std::vector<std::unique_ptr<EncoderBlock>> &blocks,
               LinearLayer &head, const Int8Calibration &calib)
{
    DOTA_ASSERT(calib.layers.size() == blocks.size(),
                "calibration covers {} layers, model has {}",
                calib.layers.size(), blocks.size());
    Int8Plan plan;
    const Matrix &wh = head.weight().value;
    plan.head = quantizeS8Transposed(wh, chooseSymmetricScale(wh, 8).scale);
    plan.final_scale = symmetricScaleFromMaxAbs(calib.final_h, kU8ActQmax);
    for (size_t l = 0; l < blocks.size(); ++l)
        plan.blocks.push_back(buildBlockPlan(*blocks[l], calib.layers[l]));
    return plan;
}

/** The head GEMM on its calibrated u8 grid. */
Matrix
int8Head(LinearLayer &head, const Int8Plan &plan, const Matrix &h)
{
    return int8MatmulBT(quantizeU8(h, plan.final_scale), plan.head,
                        head.hasBias() ? &head.bias().value : nullptr);
}

} // namespace

Int8Calibration
calibrateClassifier(TransformerClassifier &model,
                    const std::vector<Matrix> &samples)
{
    Int8Calibration calib;
    calib.layers.resize(model.config().layers);
    for (const Matrix &features : samples) {
        calib.input = std::max(calib.input, maxAbsFinite(features));
        const Matrix h = calibrateLayers(
            model.blocks(), calib, model.inputLayer().forward(features));
        calib.final_h = std::max(calib.final_h, maxAbsFinite(meanRows(h)));
    }
    return calib;
}

Int8Calibration
calibrateLM(CausalLM &model,
            const std::vector<std::vector<int>> &samples)
{
    Int8Calibration calib;
    calib.layers.resize(model.config().layers);
    for (const std::vector<int> &ids : samples) {
        const Matrix h =
            calibrateLayers(model.blocks(), calib, model.embed(ids));
        calib.final_h = std::max(calib.final_h, maxAbsFinite(h));
    }
    return calib;
}

Int8Plan
quantizeClassifier(TransformerClassifier &model,
                   const Int8Calibration &calib)
{
    Int8Plan plan = quantizeBlocks(model.blocks(), model.headLayer(), calib);
    const Matrix &wi = model.inputLayer().weight().value;
    plan.input = quantizeS8Transposed(wi, chooseSymmetricScale(wi, 8).scale);
    plan.input_scale = symmetricScaleFromMaxAbs(calib.input, kU8ActQmax);
    return plan;
}

Int8Plan
quantizeLM(CausalLM &model, const Int8Calibration &calib)
{
    return quantizeBlocks(model.blocks(), model.lmHead(), calib);
}

Matrix
int8Forward(TransformerClassifier &model, const Int8Plan &plan,
            const Matrix &features)
{
    const U8Tensor fq = quantizeU8(features, plan.input_scale);
    LinearLayer &input = model.inputLayer();
    const Matrix h = int8Layers(
        model.blocks(), plan,
        int8MatmulBT(fq, plan.input,
                     input.hasBias() ? &input.bias().value : nullptr));
    return int8Head(model.headLayer(), plan, meanRows(h));
}

Matrix
int8Forward(CausalLM &model, const Int8Plan &plan,
            const std::vector<int> &ids)
{
    return int8Head(model.lmHead(), plan,
                    int8Layers(model.blocks(), plan, model.embed(ids)));
}

void
Int8KvCache::append(const Matrix &k_rows, const Matrix &v_rows,
                    size_t n_heads, float k_scale, float v_scale)
{
    const size_t d = k_rows.cols();
    DOTA_ASSERT(len == 0 || (dim == d && heads == n_heads),
                "KV cache shape changed mid-stream");
    DOTA_ASSERT(v_rows.rows() == k_rows.rows() && v_rows.cols() == d,
                "K/V rows {} vs {}", k_rows.shapeStr(), v_rows.shapeStr());
    dim = d;
    heads = n_heads;
    const size_t dh = d / n_heads;
    k_codes.resize((len + k_rows.rows()) * d); // grows geometrically
    v_codes.resize(k_codes.size());
    for (size_t i = 0; i < k_rows.rows(); ++i, ++len) {
        int8_t *krow = k_codes.data() + len * d;
        for (size_t h = 0; h < n_heads; ++h)
            k_head_sums.push_back(quantizeS8Row(
                k_rows.row(i) + h * dh, dh, k_scale, krow + h * dh));
        quantizeS8Row(v_rows.row(i), d, v_scale, v_codes.data() + len * d);
    }
}

Matrix
int8DecodeStep(CausalLM &model, const Int8Plan &plan,
               Int8DecodeState &state, int token)
{
    const TransformerConfig &cfg = model.config();
    DOTA_ASSERT(plan.blocks.size() == cfg.layers,
                "plan covers {} layers, model has {}", plan.blocks.size(),
                cfg.layers);
    if (state.layers.size() != cfg.layers)
        state.reset(cfg.layers);
    Matrix h = model.embed({token}, state.position);
    BlockStep step;
    for (size_t l = 0; l < cfg.layers; ++l) {
        step.plan = &plan.blocks[l];
        step.int8_cache = &state.layers[l];
        h = inferBlock(*model.blocks()[l], h, step);
    }
    ++state.position;
    return int8Head(model.lmHead(), plan, h);
}

std::vector<int>
int8Generate(CausalLM &model, const Int8Plan &plan,
             const std::vector<int> &prefix, size_t steps,
             double temperature, uint64_t seed)
{
    Int8DecodeState state;
    state.reset(model.config().layers);
    return sampleContinuation(
        [&](int tok) { return int8DecodeStep(model, plan, state, tok); },
        prefix, steps, model.config().max_seq, temperature, seed);
}

} // namespace dota
