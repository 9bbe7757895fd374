/**
 * @file
 * Environment-variable configuration helpers.
 *
 * Runtime knobs that must be settable without recompiling (thread count,
 * golden-file regeneration, ...) are read through these helpers so every
 * subsystem parses them the same way and bad values degrade to documented
 * fallbacks instead of UB.
 */
#pragma once

#include <cstddef>

namespace dota {

/**
 * Non-negative integer value of @p name; @p fallback when unset, empty,
 * or not a valid decimal number.
 */
size_t envSizeT(const char *name, size_t fallback);

/** True when @p name is set to anything other than "", "0" or "false". */
bool envFlag(const char *name);

} // namespace dota
