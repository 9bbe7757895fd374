/**
 * @file
 * Implementation of the environment configuration helpers.
 */
#include "common/env.hpp"

#include <cstdlib>
#include <string>

namespace dota {

namespace {

/** Value of @p name, or "" when unset. */
std::string
envString(const char *name)
{
    const char *raw = std::getenv(name);
    return raw ? std::string(raw) : std::string();
}

} // namespace

size_t
envSizeT(const char *name, size_t fallback)
{
    const std::string s = envString(name);
    if (s.empty())
        return fallback;
    size_t pos = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(s, &pos);
    } catch (...) {
        return fallback;
    }
    if (pos != s.size())
        return fallback;
    return static_cast<size_t>(v);
}

bool
envFlag(const char *name)
{
    const std::string s = envString(name);
    return !s.empty() && s != "0" && s != "false";
}

} // namespace dota
