/**
 * @file
 * Implementation of the SIMD dispatch policy.
 */
#include "tensor/simd.hpp"

namespace dota {

namespace {

bool
cpuHasAvx2Fma()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

/** True when the instantiation for @p isa was compiled into the binary. */
bool
simdIsaCompiled(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Avx2:
#ifdef DOTA_SIMD_AVX2
        return true;
#else
        return false;
#endif
    case SimdIsa::Portable:
        break;
    }
    return true;
}

} // namespace

const char *
simdIsaName(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Avx2:
        return "avx2";
    case SimdIsa::Portable:
        break;
    }
    return "portable";
}

bool
simdIsaSupported(SimdIsa isa)
{
    if (!simdIsaCompiled(isa))
        return false;
    return isa == SimdIsa::Portable || cpuHasAvx2Fma();
}

SimdIsa
activeSimdIsa()
{
    static const SimdIsa isa =
        simdIsaSupported(SimdIsa::Avx2) ? SimdIsa::Avx2 : SimdIsa::Portable;
    return isa;
}

} // namespace dota
