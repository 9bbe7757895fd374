/**
 * @file
 * Implementation of the attention backends and their dispatch policy.
 */
#include "nn/attention_backend.hpp"

#include <cstdio>
#include <ostream>

#include "common/env.hpp"
#include "tensor/ops.hpp"
#include "tensor/sparse_ops.hpp"

namespace dota {

namespace {

AttnChoice
resolveChoiceFromEnv()
{
    const std::string v = envString("DOTA_ATTN", "auto");
    AttnChoice c = AttnChoice::Auto;
    if (!v.empty() && !parseAttnChoice(v, c))
        std::fprintf(stderr,
                     "dota: unknown DOTA_ATTN value '%s' (expected "
                     "auto|dense|sparse|streaming); using auto\n",
                     v.c_str());
    return c;
}

AttnChoice &
choiceSlot()
{
    static AttnChoice c = resolveChoiceFromEnv();
    return c;
}

/** Full scores + masked softmax + dense A*V (the pre-refactor path). */
class DenseBackend final : public AttentionBackend
{
  public:
    AttnBackendKind kind() const override { return AttnBackendKind::Dense; }
    bool capturesScores() const override { return true; }

    AttnHeadResult
    runHead(const AttnHeadProblem &p) const override
    {
        AttnHeadResult r;
        // Raw scores S = Q K^T (pre-scaling, matching Eq. 5's target).
        r.scores = matmulBT(*p.q, *p.k);
        const Matrix scaled = scale(r.scores, p.scale);
        const bool masked = p.dense_mask && !p.dense_mask->empty();
        r.probs = masked ? rowSoftmaxMasked(scaled, *p.dense_mask)
                         : rowSoftmax(scaled);
        r.z = matmul(r.probs, *p.v);
        return r;
    }
};

/** CSR kernels at mask-kept coordinates (tensor/sparse_ops.hpp). */
class SparseRowsBackend final : public AttentionBackend
{
  public:
    AttnBackendKind kind() const override { return AttnBackendKind::Sparse; }
    bool capturesScores() const override { return false; }

    AttnHeadResult
    runHead(const AttnHeadProblem &p) const override
    {
        DOTA_ASSERT(p.sparse_mask,
                    "sparse backend dispatched without a hook mask");
        AttnHeadResult r;
        r.z = sparseMaskedAttention(*p.q, *p.k, *p.v, *p.sparse_mask,
                                    p.scale);
        return r;
    }
};

/** Tiled online-softmax kernel (tensor/streaming_attention.hpp). */
class StreamingBackend final : public AttentionBackend
{
  public:
    AttnBackendKind
    kind() const override
    {
        return AttnBackendKind::Streaming;
    }
    bool capturesScores() const override { return false; }

    AttnHeadResult
    runHead(const AttnHeadProblem &p) const override
    {
        AttnHeadResult r;
        r.z = streamingAttention(*p.q, *p.k, *p.v, p.sparse_mask, p.causal,
                                 p.scale, p.tile);
        return r;
    }
};

} // namespace

const char *
attnBackendName(AttnBackendKind kind)
{
    switch (kind) {
    case AttnBackendKind::Sparse:
        return "sparse";
    case AttnBackendKind::Streaming:
        return "streaming";
    case AttnBackendKind::Dense:
        break;
    }
    return "dense";
}

const char *
attnChoiceName(AttnChoice choice)
{
    switch (choice) {
    case AttnChoice::Dense:
        return "dense";
    case AttnChoice::Sparse:
        return "sparse";
    case AttnChoice::Streaming:
        return "streaming";
    case AttnChoice::Auto:
        break;
    }
    return "auto";
}

bool
parseAttnChoice(const std::string &v, AttnChoice &out)
{
    if (v == "auto")
        out = AttnChoice::Auto;
    else if (v == "dense")
        out = AttnChoice::Dense;
    else if (v == "sparse")
        out = AttnChoice::Sparse;
    else if (v == "streaming")
        out = AttnChoice::Streaming;
    else
        return false;
    return true;
}

AttnChoice
attnChoice()
{
    return choiceSlot();
}

void
setAttnChoice(AttnChoice choice)
{
    choiceSlot() = choice;
}

void
listAttnBackends(std::ostream &os)
{
    os << "attention backends (DOTA_ATTN / --attn):\n"
       << "  auto       pick per head: streaming at n >= "
       << kStreamingAutoSeqLen
       << ", sparse when an inference hook masks, else dense\n"
       << "  dense      full n x n scores; S/A probes and backward; "
          "O(n^2) score memory\n"
       << "  sparse     CSR kernels at mask-kept coordinates; needs a "
          "hook mask; O(nnz) score memory\n"
       << "  streaming  tiled online softmax; O(tile) scores per "
          "thread; 32k+ contexts; tolerance-level numerics\n";
}

AttnBackendKind
resolveAttnBackend(AttnChoice choice, bool has_hook, bool wants_full_scores,
                   bool force_dense, bool has_hook_mask, size_t n)
{
    // Hard dense requirements: probes and training hooks need S and A
    // materialized; no override may take them away.
    if (force_dense || (has_hook && wants_full_scores))
        return AttnBackendKind::Dense;

    // Streaming drops the S/A probes; hook-free short forwards keep
    // them (and their backward path) under any DOTA_ATTN value.
    const bool streaming_legal = has_hook || n >= kStreamingAutoSeqLen;

    switch (choice) {
    case AttnChoice::Dense:
        return AttnBackendKind::Dense;
    case AttnChoice::Sparse:
        return has_hook_mask ? AttnBackendKind::Sparse
                             : AttnBackendKind::Dense;
    case AttnChoice::Streaming:
        return streaming_legal ? AttnBackendKind::Streaming
                               : AttnBackendKind::Dense;
    case AttnChoice::Auto:
        break;
    }
    if (n >= kStreamingAutoSeqLen)
        return AttnBackendKind::Streaming;
    if (has_hook_mask)
        return AttnBackendKind::Sparse;
    return AttnBackendKind::Dense;
}

const AttentionBackend &
attentionBackend(AttnBackendKind kind)
{
    static const DenseBackend dense;
    static const SparseRowsBackend sparse;
    static const StreamingBackend streaming;
    switch (kind) {
    case AttnBackendKind::Sparse:
        return sparse;
    case AttnBackendKind::Streaming:
        return streaming;
    case AttnBackendKind::Dense:
        break;
    }
    return dense;
}

} // namespace dota
