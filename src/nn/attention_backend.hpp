/**
 * @file
 * The attention execution paths and their selection (DESIGN.md §13).
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
 * Integer attention is not a path here: the calibrated int8 path runs
 * the whole block on the integer kernels (nn/infer_block.hpp).
 *
 * Selection is per head by resolveAttnBackend() from: the hook's
 * wantsFullScores() / setForceDense (hard dense requirements), the
 * sequence length (long contexts take the row kernel), and the
 * DOTA_ATTN=auto|dense|sparse override (env or CLI, mirroring
 * DOTA_SIMD). Overrides never win over a hard dense requirement and
 * never select an illegal path — they degrade to dense, so DOTA_ATTN can
 * be flipped under the whole test suite.
 */
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

namespace dota {

/** The attention execution paths. */
enum class AttnBackendKind { Dense, Sparse };

/** User-facing path selection (DOTA_ATTN / --attn). */
enum class AttnChoice { Auto, Dense, Sparse };

/** Sequence length at or above which auto-selection takes the row kernel. */
constexpr size_t kLongContextSeqLen = 4096;

/** Stable lowercase name ("dense" / "sparse"). */
const char *attnBackendName(AttnBackendKind kind);

/** Stable lowercase name, including "auto". */
const char *attnChoiceName(AttnChoice choice);

/**
 * Parse a DOTA_ATTN / --attn value. Returns false (leaving @p out
 * untouched) for anything outside auto|dense|sparse.
 */
bool parseAttnChoice(const std::string &v, AttnChoice &out);

/**
 * The process-wide choice: the last setAttnChoice() value, or on first
 * use the DOTA_ATTN environment variable (unknown values warn on stderr
 * and degrade to auto, like DOTA_SIMD; the CLI validates before this
 * point and exits instead).
 */
AttnChoice attnChoice();

/** Override the process-wide choice (CLI --attn, tests). */
void setAttnChoice(AttnChoice choice);

/**
 * RAII pin of the process-wide choice. Tests asserting properties of
 * one specific path (e.g. which path a head took, the dense S/A
 * captures) wrap their forwards in this so they keep testing that path
 * under any DOTA_ATTN CI value.
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

/** Print the path table (one row per --attn value) to @p os. */
void listAttnBackends(std::ostream &os);

/**
 * Pick the path for one head.
 *
 * Hard requirements first: a hook that wants full scores or a
 * force-dense probe always gets Dense (S and A must exist). Otherwise
 * the choice applies where legal: Sparse needs an inference hook or —
 * hook-free — a long sequence (n >= kLongContextSeqLen), so short
 * hook-free forwards keep their dense S/A probes and backward path
 * under any DOTA_ATTN value. Auto takes Sparse for long sequences and
 * whenever a hook masks, and stays dense otherwise.
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

} // namespace dota
