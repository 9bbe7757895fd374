/**
 * @file
 * SIMD instruction-set detection and dispatch policy for the kernel
 * layer (DESIGN.md §11).
 *
 * The dense micro-kernels in gemm_kernels.hpp exist in one portable
 * instantiation (plain C++, std::fma) and, when the toolchain supports
 * it, an AVX2/FMA instantiation compiled into a dedicated translation
 * unit. The best supported one runs, decided once per process:
 *
 *   1. compile-time: the AVX2 unit is built only under the DOTA_SIMD
 *      CMake option (default ON) on x86 toolchains that accept
 *      -mavx2 -mfma;
 *   2. runtime: the CPU must report avx2+fma support (cpuid).
 *
 * Both instantiations follow the same per-element reduction contracts
 * (gemm_kernels.hpp), so switching paths never changes results — only
 * throughput. Tests pin this by running both tables and comparing bits;
 * a -DDOTA_SIMD=OFF build runs everything on the portable table.
 */
#pragma once

namespace dota {

/** Kernel instruction-set paths, ordered slowest to fastest. */
enum class SimdIsa
{
    Portable = 0, ///< plain C++ fallback (std::fma per element)
    Avx2 = 1,     ///< AVX2 + FMA intrinsics (x86-64)
};

/** Short lowercase name ("portable", "avx2") for reports and logs. */
const char *simdIsaName(SimdIsa isa);

/** True when @p isa is compiled in AND the running CPU supports it. */
bool simdIsaSupported(SimdIsa isa);

/**
 * The ISA the dispatched kernels use: the fastest one simdIsaSupported()
 * accepts, resolved once per process.
 */
SimdIsa activeSimdIsa();

} // namespace dota
