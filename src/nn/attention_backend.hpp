/**
 * @file
 * Pluggable attention-execution backends (DESIGN.md §13).
 *
 * MultiHeadAttention::forward used to hard-code two execution paths
 * (dense, CSR-sparse). This layer factors each path into an
 * AttentionBackend so new paths (the tiled streaming kernel here;
 * token-routing paths later) slot in without touching every caller:
 *
 *  - DenseBackend: full n x n scores + masked softmax + dense A*V.
 *    The only backend that materializes S and A — required whenever a
 *    hook needs full scores (training) or measurement code forces it.
 *    Bit-identical to the pre-refactor dense path.
 *  - SparseRowsBackend: CSR kernels of tensor/sparse_ops.hpp; scores
 *    only at mask-kept coordinates, bit-identical to the dense masked
 *    path at those coordinates. Needs a hook-selected mask.
 *  - StreamingBackend: tiled online-softmax kernel of
 *    tensor/streaming_attention.hpp; O(tile) score memory per thread,
 *    mask-kept tiles only. Matches dense within pinned tolerances.
 *
 * Integer attention is not a backend: the calibrated int8 path runs
 * the whole block on the integer kernels (nn/infer_block.hpp).
 *
 * Selection is runtime-dispatched per head by resolveAttnBackend()
 * from: the hook's wantsFullScores() / setForceDense (hard dense
 * requirements), the sequence length (long contexts auto-stream), and
 * the DOTA_ATTN=auto|dense|sparse|streaming override (env or CLI,
 * mirroring DOTA_SIMD). Overrides never win over a hard dense
 * requirement and never select an illegal backend — they degrade to
 * dense, so DOTA_ATTN can be flipped under the whole test suite.
 */
#pragma once

#include <iosfwd>
#include <string>

#include "tensor/matrix.hpp"
#include "tensor/sparse_mask.hpp"
#include "tensor/streaming_attention.hpp"

namespace dota {

/** The attention execution paths. */
enum class AttnBackendKind { Dense, Sparse, Streaming };

/** User-facing backend selection (DOTA_ATTN / --attn). */
enum class AttnChoice { Auto, Dense, Sparse, Streaming };

/** Sequence length at or above which auto-selection streams. */
constexpr size_t kStreamingAutoSeqLen = 4096;

/** Stable lowercase name ("dense" / "sparse" / "streaming"). */
const char *attnBackendName(AttnBackendKind kind);

/** Stable lowercase name, including "auto". */
const char *attnChoiceName(AttnChoice choice);

/**
 * Parse a DOTA_ATTN / --attn value. Returns false (leaving @p out
 * untouched) for anything outside auto|dense|sparse|streaming.
 */
bool parseAttnChoice(const std::string &v, AttnChoice &out);

/**
 * The process-wide backend choice: the last setAttnChoice() value, or
 * on first use the DOTA_ATTN environment variable (unknown values warn
 * on stderr and degrade to auto, like DOTA_SIMD; the CLI validates
 * before this point and exits instead).
 */
AttnChoice attnChoice();

/** Override the process-wide choice (CLI --attn, tests). */
void setAttnChoice(AttnChoice choice);

/**
 * RAII pin of the process-wide choice. Tests asserting properties of
 * one specific backend (e.g. the sparse path's bitwise identity, the
 * dense incremental-decode equivalence) wrap their forwards in this so
 * they keep testing that backend under any DOTA_ATTN CI value.
 */
class ScopedAttnChoice
{
  public:
    explicit ScopedAttnChoice(AttnChoice choice) : prev_(attnChoice())
    {
        setAttnChoice(choice);
    }
    ~ScopedAttnChoice() { setAttnChoice(prev_); }
    ScopedAttnChoice(const ScopedAttnChoice &) = delete;
    ScopedAttnChoice &operator=(const ScopedAttnChoice &) = delete;

  private:
    AttnChoice prev_;
};

/** Print the backend table (one row per --attn value) to @p os. */
void listAttnBackends(std::ostream &os);

/**
 * Pick the backend for one head.
 *
 * Hard requirements first: a hook that wants full scores or a
 * force-dense probe always gets Dense (S and A must exist). Otherwise
 * the choice applies where legal: Sparse needs a hook mask; Streaming
 * needs either an inference hook or — hook-free — a long sequence
 * (n >= kStreamingAutoSeqLen), so short hook-free forwards keep their
 * dense S/A probes and backward path under any DOTA_ATTN value. Auto
 * streams long sequences, takes the CSR path when a hook mask exists,
 * and stays dense otherwise.
 *
 * @param choice            attnChoice() or an explicit override
 * @param has_hook          a hook is installed
 * @param wants_full_scores hook_->wantsFullScores() (false when no hook)
 * @param force_dense       setForceDense(true) is active
 * @param has_hook_mask     the hook selected a non-empty mask
 * @param n                 sequence length (query rows)
 */
AttnBackendKind resolveAttnBackend(AttnChoice choice, bool has_hook,
                                   bool wants_full_scores, bool force_dense,
                                   bool has_hook_mask, size_t n);

/** One head's inputs, prepared by MultiHeadAttention::forward. */
struct AttnHeadProblem
{
    const Matrix *q = nullptr; ///< queries, n x dh
    const Matrix *k = nullptr; ///< keys,    n x dh
    const Matrix *v = nullptr; ///< values,  n x dh
    float scale = 1.0f;        ///< 1/sqrt(d_k)

    /**
     * Dense keep mask for the dense backend (hook mask, or the cached
     * causal triangle); nullptr/empty = unmasked softmax.
     */
    const Matrix *dense_mask = nullptr;

    /**
     * Hook mask in sparse form for the sparse/streaming backends;
     * nullptr when the hook kept everything (dense semantics).
     */
    const SparseMask *sparse_mask = nullptr;

    /**
     * Implicit causal bound for the streaming backend. False whenever
     * a hook mask is present — a hook mask replaces the causal
     * constraint, exactly as in the dense path.
     */
    bool causal = false;

    size_t tile = kStreamingAttnTile; ///< streaming KV-tile width
};

/** One head's outputs. scores/probs are filled by Dense only. */
struct AttnHeadResult
{
    Matrix z;      ///< context, n x dh
    Matrix scores; ///< raw S = QK^T (dense backend only)
    Matrix probs;  ///< attention probabilities A (dense backend only)
};

/** Stateless execution strategy for one attention head. */
class AttentionBackend
{
  public:
    virtual ~AttentionBackend() = default;

    virtual AttnBackendKind kind() const = 0;
    const char *name() const { return attnBackendName(kind()); }

    /**
     * True when runHead() materializes scores/probs — the probe
     * accessors lastScores()/lastAttention() are a capability of the
     * backend, not of the layer: only capturing backends feed them
     * (and trigger the hook's observeScores()).
     */
    virtual bool capturesScores() const = 0;

    virtual AttnHeadResult runHead(const AttnHeadProblem &p) const = 0;
};

/** The singleton backend instance for @p kind. */
const AttentionBackend &attentionBackend(AttnBackendKind kind);

} // namespace dota
