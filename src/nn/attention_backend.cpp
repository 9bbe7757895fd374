/**
 * @file
 * Implementation of the attention path selection.
 */
#include "nn/attention_backend.hpp"

#include <cstdio>
#include <ostream>

#include "common/env.hpp"

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
                     "auto|dense|sparse); using auto\n",
                     v.c_str());
    return c;
}

AttnChoice &
choiceSlot()
{
    static AttnChoice c = resolveChoiceFromEnv();
    return c;
}

} // namespace

const char *
attnBackendName(AttnBackendKind kind)
{
    return kind == AttnBackendKind::Sparse ? "sparse" : "dense";
}

const char *
attnChoiceName(AttnChoice choice)
{
    switch (choice) {
    case AttnChoice::Dense:
        return "dense";
    case AttnChoice::Sparse:
        return "sparse";
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
       << "  auto    pick per head: sparse at n >= " << kLongContextSeqLen
       << " or when an inference hook masks, else dense\n"
       << "  dense   full n x n scores; S/A probes and backward; "
          "O(n^2) score memory\n"
       << "  sparse  exact row kernel over each row's kept keys; "
          "bit-identical to dense; one score row per thread\n";
}

AttnBackendKind
resolveAttnBackend(AttnChoice choice, bool has_hook, bool wants_full_scores,
                   bool force_dense, bool has_hook_mask, size_t n)
{
    // Hard dense requirements: probes and training hooks need S and A
    // materialized; no override may take them away.
    if (force_dense || (has_hook && wants_full_scores))
        return AttnBackendKind::Dense;

    const bool long_context = n >= kLongContextSeqLen;
    switch (choice) {
    case AttnChoice::Dense:
        return AttnBackendKind::Dense;
    case AttnChoice::Sparse:
        // The row kernel drops the S/A probes; hook-free short forwards
        // keep them (and their backward path) under any DOTA_ATTN value.
        return has_hook || long_context ? AttnBackendKind::Sparse
                                        : AttnBackendKind::Dense;
    case AttnChoice::Auto:
        break;
    }
    return long_context || has_hook_mask ? AttnBackendKind::Sparse
                                         : AttnBackendKind::Dense;
}

} // namespace dota
