/**
 * @file
 * Implementation of the dense kernels.
 */
#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/gemm_kernels.hpp"

namespace dota {

namespace {

/**
 * Below this many MACs a GEMM stays serial: the fork/join cost of
 * parallelFor outweighs the arithmetic. Re-derived for the vectorized
 * kernels (the scalar kernels that set the old 2^18 boundary retired
 * ~1.6 GMAC/s single-thread; the AVX2/FMA kernels measure ~8-13 GMAC/s
 * via bench_kernels, an ~8x faster inner loop), so the crossover moves
 * up by the same factor: 2^21 MACs is ~250 us of serial work on the
 * reference box — still ~25x the measured fork/join cost — and keeps
 * the 64^3 layer-sized products (2^18) comfortably serial while every
 * 512-token attention product (>= 2^24) stays parallel.
 */
constexpr uint64_t kParallelMacThreshold = 1ull << 21;

} // namespace

uint64_t
gemmParallelMacThreshold()
{
    return kParallelMacThreshold;
}

void
parallelRows(size_t rows, uint64_t macs,
             const std::function<void(size_t, size_t)> &fn)
{
    if (macs < kParallelMacThreshold)
        return fn(0, rows);
    // ~4 chunks per thread even out load under dynamic claiming; at the
    // threshold even a 128^3 GEMM gives each chunk >= 4 rows of ~16k
    // MACs (~2 us), two orders of magnitude above the claim cost.
    const size_t conc = ThreadPool::globalConcurrency();
    parallelFor(0, rows, std::max<size_t>(1, rows / (4 * conc)), fn);
}

/*
 * The three GEMMs route through the ISA-dispatched micro-kernel tables
 * (tensor/gemm_kernels.hpp). The dense inner loops deliberately do NOT
 * skip zero multiplicands: the old `av == 0.0f` shortcut silently
 * turned 0 * Inf/NaN into 0 instead of NaN and put an unpredictable
 * branch in the hot loop. Sparsity lives in the row attention kernel
 * (tensor/rows_attention.hpp), which skips *coordinates*, not values.
 */

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    DOTA_ASSERT(a.cols() == b.rows(), "matmul {} * {}", a.shapeStr(),
                b.shapeStr());
    const size_t m = a.rows(), k = a.cols(), n = b.cols();
    Matrix c(m, n);
    const auto &kt = activeGemmKernels();
    parallelRows(m, gemmMacs(m, k, n), [&](size_t i0, size_t i1) {
        kt.matmulRows(a, b, c, i0, i1);
    });
    return c;
}

Matrix
matmulBT(const Matrix &a, const Matrix &b)
{
    DOTA_ASSERT(a.cols() == b.cols(), "matmulBT {} * {}^T", a.shapeStr(),
                b.shapeStr());
    const size_t m = a.rows(), k = a.cols(), n = b.rows();
    Matrix c(m, n);
    const auto &kt = activeGemmKernels();
    parallelRows(m, gemmMacs(m, k, n), [&](size_t i0, size_t i1) {
        kt.matmulBTRows(a, b, c, i0, i1);
    });
    return c;
}

Matrix
matmulAT(const Matrix &a, const Matrix &b)
{
    DOTA_ASSERT(a.rows() == b.rows(), "matmulAT {}^T * {}", a.shapeStr(),
                b.shapeStr());
    const size_t m = a.cols(), k = a.rows(), n = b.cols();
    Matrix c(m, n);
    const auto &kt = activeGemmKernels();
    parallelRows(m, gemmMacs(m, k, n), [&](size_t i0, size_t i1) {
        kt.matmulATRows(a, b, c, i0, i1);
    });
    return c;
}

Matrix
transpose(const Matrix &a)
{
    Matrix t(a.cols(), a.rows());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            t(j, i) = a(i, j);
    return t;
}

namespace {

void
assertSameShape(const Matrix &a, const Matrix &b, const char *what)
{
    DOTA_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                "{}: shape mismatch {} vs {}", what, a.shapeStr(),
                b.shapeStr());
}

} // namespace

Matrix
add(const Matrix &a, const Matrix &b)
{
    assertSameShape(a, b, "add");
    Matrix c(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        c.data()[i] = a.data()[i] + b.data()[i];
    return c;
}

Matrix
sub(const Matrix &a, const Matrix &b)
{
    assertSameShape(a, b, "sub");
    Matrix c(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        c.data()[i] = a.data()[i] - b.data()[i];
    return c;
}

Matrix
hadamard(const Matrix &a, const Matrix &b)
{
    assertSameShape(a, b, "hadamard");
    Matrix c(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        c.data()[i] = a.data()[i] * b.data()[i];
    return c;
}

Matrix
scale(const Matrix &a, float s)
{
    Matrix c(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        c.data()[i] = a.data()[i] * s;
    return c;
}

Matrix
addRowBroadcast(const Matrix &a, const Matrix &bias)
{
    DOTA_ASSERT(bias.rows() == 1 && bias.cols() == a.cols(),
                "bias {} incompatible with {}", bias.shapeStr(),
                a.shapeStr());
    Matrix c(a.rows(), a.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            c(i, j) = a(i, j) + bias(0, j);
    return c;
}

Matrix
meanRows(const Matrix &a)
{
    Matrix m(1, a.cols());
    const float inv = 1.0f / static_cast<float>(a.rows());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            m(0, j) += a(i, j) * inv;
    return m;
}

void
softmaxInPlace(float *x, size_t n)
{
    if (n == 0)
        return; // no kept entries: nothing to normalize
    // A zero maximum's sign may differ between tables; expRow computes
    // x - mx, which differs then only for x = -0 (+-0 out) and
    // exp(+-0) = 1, so the output does not.
    const GemmKernelTable &kern = activeGemmKernels();
    kern.expRow(x, kern.maxRow(x, n), n, x);
    double denom = 0.0;
    for (size_t j = 0; j < n; ++j)
        denom += x[j];
    const float inv = static_cast<float>(1.0 / denom);
    for (size_t j = 0; j < n; ++j)
        x[j] *= inv;
}

Matrix
rowSoftmax(const Matrix &a)
{
    Matrix y = a;
    for (size_t i = 0; i < y.rows(); ++i)
        softmaxInPlace(y.row(i), y.cols());
    return y;
}

Matrix
rowSoftmaxMasked(const Matrix &a, const Matrix &mask)
{
    assertSameShape(a, mask, "rowSoftmaxMasked");
    Matrix y(a.rows(), a.cols());
    std::vector<size_t> ids;
    std::vector<float> kept;
    for (size_t i = 0; i < a.rows(); ++i) {
        const float *m = mask.row(i);
        ids.clear();
        kept.clear();
        for (size_t j = 0; j < a.cols(); ++j)
            if (m[j] != 0.0f) {
                ids.push_back(j);
                kept.push_back(a(i, j));
            }
        // No kept entry: the row stays zero (no incoming edges).
        softmaxInPlace(kept.data(), kept.size());
        for (size_t t = 0; t < ids.size(); ++t)
            y(i, ids[t]) = kept[t];
    }
    return y;
}

Matrix
rowSoftmaxBackward(const Matrix &y, const Matrix &dy)
{
    assertSameShape(y, dy, "rowSoftmaxBackward");
    Matrix dx(y.rows(), y.cols());
    for (size_t i = 0; i < y.rows(); ++i) {
        const float *yr = y.row(i);
        const float *dyr = dy.row(i);
        double dot = 0.0;
        for (size_t j = 0; j < y.cols(); ++j)
            dot += static_cast<double>(yr[j]) * dyr[j];
        float *dxr = dx.row(i);
        for (size_t j = 0; j < y.cols(); ++j)
            dxr[j] = yr[j] * (dyr[j] - static_cast<float>(dot));
    }
    return dx;
}

Matrix
relu(const Matrix &a)
{
    Matrix y(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        y.data()[i] = a.data()[i] > 0.0f ? a.data()[i] : 0.0f;
    return y;
}

Matrix
reluBackward(const Matrix &x, const Matrix &dy)
{
    assertSameShape(x, dy, "reluBackward");
    Matrix dx(x.rows(), x.cols());
    for (size_t i = 0; i < x.size(); ++i)
        dx.data()[i] = x.data()[i] > 0.0f ? dy.data()[i] : 0.0f;
    return dx;
}

Matrix
gelu(const Matrix &a)
{
    Matrix y(a.rows(), a.cols());
    activeGemmKernels().geluRow(a.data(), a.size(), y.data());
    return y;
}

Matrix
geluBackward(const Matrix &xin, const Matrix &dy)
{
    assertSameShape(xin, dy, "geluBackward");
    Matrix dx(xin.rows(), xin.cols());
    activeGemmKernels().geluBackwardRow(xin.data(), dy.data(), xin.size(),
                                        dx.data());
    return dx;
}

Matrix
layerNorm(const Matrix &x, const Matrix &gamma, const Matrix &beta,
          Matrix &mean, Matrix &rstd, float eps)
{
    const size_t n = x.rows(), d = x.cols();
    DOTA_ASSERT(gamma.cols() == d && beta.cols() == d,
                "layerNorm params must be 1x{}", d);
    Matrix y(n, d);
    mean = Matrix(n, 1);
    rstd = Matrix(n, 1);
    for (size_t i = 0; i < n; ++i) {
        const float *xr = x.row(i);
        double mu = 0.0;
        for (size_t j = 0; j < d; ++j)
            mu += xr[j];
        mu /= static_cast<double>(d);
        double var = 0.0;
        for (size_t j = 0; j < d; ++j) {
            const double c = xr[j] - mu;
            var += c * c;
        }
        var /= static_cast<double>(d);
        const float rs = static_cast<float>(1.0 / std::sqrt(var + eps));
        mean(i, 0) = static_cast<float>(mu);
        rstd(i, 0) = rs;
        float *yr = y.row(i);
        for (size_t j = 0; j < d; ++j)
            yr[j] = (xr[j] - static_cast<float>(mu)) * rs * gamma(0, j) +
                    beta(0, j);
    }
    return y;
}

Matrix
layerNormBackward(const Matrix &x, const Matrix &gamma, const Matrix &mean,
                  const Matrix &rstd, const Matrix &dy, Matrix &dgamma,
                  Matrix &dbeta)
{
    const size_t n = x.rows(), d = x.cols();
    if (dgamma.cols() != d)
        dgamma = Matrix(1, d);
    if (dbeta.cols() != d)
        dbeta = Matrix(1, d);
    Matrix dx(n, d);
    for (size_t i = 0; i < n; ++i) {
        const float *xr = x.row(i);
        const float *dyr = dy.row(i);
        const float mu = mean(i, 0);
        const float rs = rstd(i, 0);
        // xhat_j = (x_j - mu) * rs; dy_j flows through gamma.
        double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
        for (size_t j = 0; j < d; ++j) {
            const float xhat = (xr[j] - mu) * rs;
            const float dxhat = dyr[j] * gamma(0, j);
            sum_dxhat += dxhat;
            sum_dxhat_xhat += static_cast<double>(dxhat) * xhat;
            dgamma(0, j) += dyr[j] * xhat;
            dbeta(0, j) += dyr[j];
        }
        float *dxr = dx.row(i);
        const double inv_d = 1.0 / static_cast<double>(d);
        for (size_t j = 0; j < d; ++j) {
            const float xhat = (xr[j] - mu) * rs;
            const float dxhat = dyr[j] * gamma(0, j);
            dxr[j] = static_cast<float>(
                rs * (dxhat - inv_d * sum_dxhat - xhat * inv_d *
                      sum_dxhat_xhat));
        }
    }
    return dx;
}

double
mse(const Matrix &a, const Matrix &b)
{
    assertSameShape(a, b, "mse");
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        const double d = static_cast<double>(a.data()[i]) - b.data()[i];
        acc += d * d;
    }
    return acc / static_cast<double>(a.size());
}

uint64_t
gemmMacs(size_t m, size_t k, size_t n)
{
    return static_cast<uint64_t>(m) * k * n;
}

} // namespace dota
