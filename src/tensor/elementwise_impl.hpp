/**
 * @file
 * Private to the kernel tables: the elementwise family's op sequences
 * (exp, GELU, GELU's derivative), written once over a lane type so the
 * portable table (gemm_kernels.cpp, one float per lane) and the AVX2
 * table (gemm_avx2.cpp, eight) run the same steps, and the scalar
 * top-k sweep loops, which are the portable entries and the AVX2
 * tails. See the contracts in gemm_kernels.hpp and DESIGN.md §11.
 *
 * A lane type L provides V (the value), M (a compare result) and the
 * static ops set, add, sub, mul, div, fma (fused, one rounding),
 * addExponent, gt, lt, isNan and select. No sequence below feeds a
 * plain product into a plain sum, so a compiler that contracts a*b + c
 * into an fma has nothing to contract: every fused step is an explicit
 * L::fma on both tables.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/gemm_kernels.hpp"

namespace dota::detail {

/** The portable lane: one float, every fused step a std::fma. */
struct ScalarLane
{
    using V = float;
    using M = bool;

    static V set(float c) { return c; }
    static V add(V a, V b) { return a + b; }
    static V sub(V a, V b) { return a - b; }
    static V mul(V a, V b) { return a * b; }
    static V div(V a, V b) { return a / b; }
    static V fma(V a, V b, V c) { return std::fma(a, b, c); }
    /** The bits of @p p plus the bits of @p t shifted left by 23. */
    static V
    addExponent(V p, V t)
    {
        return std::bit_cast<float>(std::bit_cast<uint32_t>(p) +
                                    (std::bit_cast<uint32_t>(t) << 23));
    }
    static M gt(V a, V b) { return a > b; }
    static M lt(V a, V b) { return a < b; }
    static M isNan(V a) { return a != a; }
    static V select(M m, V a, V b) { return m ? a : b; }
};

// exp: Cody–Waite range reduction x = n ln2 + r, |r| <= ln2/2, a
// degree-6 polynomial for e^r, and 2^n added into its exponent bits.
inline constexpr float kExpLog2e = 0x1.715476p+0f;
/** 1.5 * 2^23: fma(x, log2e, this) rounds x log2e to the integer n. */
inline constexpr float kExpRoundShift = 0x1.8p+23f;
/** ln2 in two parts; n * kExpLn2Hi is exact for |n| <= 2^8. */
inline constexpr float kExpLn2Hi = 0x1.62e4p-1f;
inline constexpr float kExpLn2Lo = 0x1.7f7d1cp-20f;
/**
 * e^r ~ 1 + r (c1 + r (c2 + ... + r c6)) on [-ln2/2, ln2/2]: the
 * degree-5 interpolant of (e^r - 1) / r at the Chebyshev nodes, with
 * coefficients rounded to float (relative error 1.1e-8 before the
 * float rounding of the steps).
 */
inline constexpr float kExpC6 = 0x1.6d4316p-10f;
inline constexpr float kExpC5 = 0x1.123d82p-7f;
inline constexpr float kExpC4 = 0x1.5554eap-5f;
inline constexpr float kExpC3 = 0x1.55547cp-3f;
/** The largest float whose exp is finite (88.7228317...). */
inline constexpr float kExpOverflow = 0x1.62e42ep+6f;
/**
 * The least float with exp(x) >= FLT_MIN (-87.3365402...): above it
 * n >= -126, and n = -126 only with r >= 0, so the exponent sum stays
 * normal; below it the result is flushed to +0.
 */
inline constexpr float kExpUnderflow = -0x1.5d589ep+6f;

/**
 * e^x. NaN in gives the same NaN out; x > kExpOverflow (+inf
 * included) gives +inf; x < kExpUnderflow (-inf included) gives +0;
 * exp(±0) = 1 exactly. Relative error <= 8.3e-8 on every normal result
 * (checked over every float in [kExpUnderflow, kExpOverflow]).
 */
template <typename L>
inline typename L::V
expLane(typename L::V x)
{
    using V = typename L::V;
    const V t = L::fma(x, L::set(kExpLog2e), L::set(kExpRoundShift));
    const V n = L::sub(t, L::set(kExpRoundShift));
    V r = L::fma(n, L::set(-kExpLn2Hi), x);
    r = L::fma(n, L::set(-kExpLn2Lo), r);
    V p = L::fma(L::set(kExpC6), r, L::set(kExpC5));
    p = L::fma(p, r, L::set(kExpC4));
    p = L::fma(p, r, L::set(kExpC3));
    p = L::fma(p, r, L::set(0.5f));
    p = L::fma(p, r, L::set(1.0f));
    p = L::fma(p, r, L::set(1.0f));
    // The low bits of t hold n: the integer sum scales p by 2^n exactly.
    // Out of range the bits are garbage; the selects replace them.
    V y = L::addExponent(p, t);
    y = L::select(L::gt(x, L::set(kExpOverflow)),
                  L::set(std::numeric_limits<float>::infinity()), y);
    y = L::select(L::lt(x, L::set(kExpUnderflow)), L::set(0.0f), y);
    return L::select(L::isNan(x), x, y);
}

// GELU, tanh approximation, as x sigma(2u) = x / (1 + e^{-2u}) with
// u = sqrt(2/pi) (x + 0.044715 x^3). -2u = x (kGeluV0 + kGeluV1 x^2).
inline constexpr float kGeluV0 = -0x1.988454p+0f; // -2 sqrt(2/pi)
inline constexpr float kGeluV1 = -0x1.2444f2p-4f; // -2 sqrt(2/pi) 0.044715
// d(2u)/dx = kGeluD0 + kGeluD1 x^2.
inline constexpr float kGeluD0 = 0x1.988454p+0f; // 2 sqrt(2/pi)
inline constexpr float kGeluD1 = 0x1.b6676cp-3f; // 6 sqrt(2/pi) 0.044715

/** e^{-2u} of GELU's sigmoid form, from x and x^2. */
template <typename L>
inline typename L::V
geluExpLane(typename L::V x, typename L::V x2)
{
    return expLane<L>(
        L::mul(x, L::fma(x2, L::set(kGeluV1), L::set(kGeluV0))));
}

/** GELU(x) = x / (1 + e^{-2u}). */
template <typename L>
inline typename L::V
geluLane(typename L::V x)
{
    const typename L::V e = geluExpLane<L>(x, L::mul(x, x));
    return L::div(x, L::add(L::set(1.0f), e));
}

/**
 * dy * GELU'(x), with s = sigma(2u) = 1 / (1 + e^{-2u}):
 * GELU'(x) = s (1 + x (2u)' (1 - s)).
 */
template <typename L>
inline typename L::V
geluBackwardLane(typename L::V x, typename L::V dy)
{
    using V = typename L::V;
    const V x2 = L::mul(x, x);
    const V s =
        L::div(L::set(1.0f), L::add(L::set(1.0f), geluExpLane<L>(x, x2)));
    const V du = L::fma(x2, L::set(kGeluD1), L::set(kGeluD0));
    const V g = L::fma(L::mul(x, du), L::sub(L::set(1.0f), s), L::set(1.0f));
    return L::mul(dy, L::mul(s, g));
}

/** topkKeysRow over x[j..n), folding into @p r. */
inline void
topkKeysFrom(const float *x, size_t j, size_t n, int32_t *keys,
             uint32_t *hist, TopkKeyRange &r)
{
    for (; j < n; ++j) {
        const int32_t key = topkOrderKey(x[j]);
        keys[j] = key;
        r.lo = std::min(r.lo, key);
        r.hi = std::max(r.hi, key);
        ++hist[topkKeyBin(key)];
    }
}

/** topkPackRow over keys[j..n), with @p kept ids already written. */
inline size_t
topkPackFrom(const int32_t *keys, size_t j, size_t n, int32_t thr,
             int32_t hi, size_t ties, size_t limit, uint32_t *out,
             size_t kept)
{
    for (; j < n && kept < limit; ++j) {
        const int32_t key = keys[j];
        bool take = key > thr && key <= hi;
        if (key == thr && ties > 0) {
            take = true;
            --ties;
        }
        if (take)
            out[kept++] = static_cast<uint32_t>(j);
    }
    return kept;
}

} // namespace dota::detail
