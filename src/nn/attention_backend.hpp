/**
 * @file
 * The attention execution paths and the one rule that picks between
 * them (DESIGN.md §13).
 *
 * MultiHeadAttention::forward runs each head on one of two paths:
 *
 *  - Dense: full n x n scores, masked softmax, dense A*V. The only path
 *    that materializes S and A — required whenever a hook needs full
 *    scores (training), a backward pass follows, or measurement code
 *    forces it.
 *  - Sparse: the exact row kernel of tensor/rows_attention.hpp. Each
 *    query row is computed against only the keys it keeps (the hook's
 *    mask row, or the causal / full range), bit-identical to dense,
 *    with one m-float score row per thread.
 *
 * Both paths give the same bits, so the choice is a matter of speed and
 * of what the caller needs to read afterwards; no option overrides it.
 * Integer attention is not a path here: the calibrated int8 path runs
 * the whole block on the integer kernels (nn/infer_block.hpp).
 */
#pragma once

#include <cstddef>

namespace dota {

/** The attention execution paths. */
enum class AttnBackendKind { Dense, Sparse };

/**
 * Sequence length at or above which a head without a mask takes the row
 * kernel, so hook-free long forwards build no n x n buffers. Below it
 * the GEMMs beat the row kernel on a full head.
 */
constexpr size_t kLongContextSeqLen = 4096;

/**
 * Pick the path for one head:
 *  - Dense when S and A must be captured (@p capture: setForceDense, or
 *    a hook whose wantsFullScores() is true);
 *  - Sparse when the hook masked the head, or at n >= kLongContextSeqLen;
 *  - Dense otherwise.
 *
 * @param capture the forward must cache S and A for this head
 * @param masked  the hook selected a non-empty mask for this head
 * @param n       sequence length (query rows)
 */
constexpr AttnBackendKind
resolveAttnBackend(bool capture, bool masked, size_t n)
{
    if (capture)
        return AttnBackendKind::Dense;
    return masked || n >= kLongContextSeqLen ? AttnBackendKind::Sparse
                                             : AttnBackendKind::Dense;
}

/**
 * The one dispatch policy, named for reports: resolveAttnBackend() is
 * the whole of it. Kept only because the benchmark's context line prints
 * attnChoiceName(attnChoice()); ROADMAP item 5 removes the pair.
 */
enum class AttnChoice { Auto };

constexpr AttnChoice
attnChoice()
{
    return AttnChoice::Auto;
}

/** "auto". */
constexpr const char *
attnChoiceName(AttnChoice)
{
    return "auto";
}

} // namespace dota
