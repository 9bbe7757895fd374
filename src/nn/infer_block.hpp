/**
 * @file
 * The inference block step: one block of the stack (attention, residual
 * + LayerNorm, FFN, residual + LayerNorm) over q_len >= 1 new rows
 * against a KV cache — the decoder processing of Section 4.4 run on any
 * number of new queries. An empty cache makes the step a full-sequence
 * forward, one new row makes it a decode step, and the same function
 * serves both precisions:
 *
 *  - fp32 (no plan): the GEMMs of EncoderBlock::forward; attention reads
 *    K/V in place from the cache rows through the kernel table — `dot`
 *    for each score, the rowSoftmaxMasked operation sequence, and
 *    `sparseAvRow` over every kept key for A*V. Those are the per-element
 *    contracts of the dense path's matmulBT / matmul, so a decode step is
 *    bit-identical to the matching row of CausalLM::forward.
 *  - int8 (an Int8BlockPlan): every GEMM on the u8 x s8 kernels, integer
 *    softmax between QK^T and A*V, s8 K/V codes in an Int8KvCache.
 *    Integer sums are exact, so a decode step is bit-identical to the
 *    matching row of the full-sequence int8 forward by arithmetic.
 *
 * The hook, when given, sees the fp layer's calls in the fp layer's
 * order (beginLayer, then observeQK / selectSparseMask / observeScores
 * per head) and its mask replaces the causal bound; hooks see whole
 * sequences, so a hooked step needs an empty cache. Training (forward
 * with S/A capture and backward) and the hooked fp prefill stay on
 * EncoderBlock::forward.
 */
#pragma once

#include "nn/decode.hpp"
#include "nn/int8_infer.hpp"

namespace dota {

/** What one inferBlock call reads and writes besides the block's rows. */
struct BlockStep
{
    /** int8 execution plan of this block; nullptr runs fp32. */
    const Int8BlockPlan *plan = nullptr;

    /** fp32 K/V cache (plan == nullptr); also feeds the attention mass. */
    KvCache *cache = nullptr;

    /** int8 K/V cache (plan != nullptr). */
    Int8KvCache *int8_cache = nullptr;

    /** Attention interceptor; nullptr for none. Needs an empty cache. */
    AttentionHook *hook = nullptr;

    /**
     * fp32 only: keep the top max(1, round(retention * visible)) keys of
     * each query row (1.0 = dense). Below 1 a step never streams.
     */
    double retention = 1.0;

    /** Calibration: fold max |x| of every quantization site in here. */
    Int8LayerRanges *ranges = nullptr;
};

/**
 * Run block @p blk over the new rows @p x (q_len x d), appending their
 * K/V to the step's cache; returns the block output (q_len x d). A
 * single fp32 row with retention 1 and no hook takes the streaming
 * query kernel when DOTA_ATTN picks streaming (or auto on a cache of
 * kStreamingAutoSeqLen positions or more), as decode always has.
 */
Matrix inferBlock(EncoderBlock &blk, const Matrix &x, const BlockStep &step);

} // namespace dota
