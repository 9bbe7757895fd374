/**
 * @file
 * google-benchmark microbenchmarks of the performance-critical kernels:
 * reference GEMM, quantized detection GEMM, row-wise top-k selection,
 * the locality-aware scheduler, the detector's score estimation, and the
 * dense-vs-sparse attention retention sweep.
 *
 * Output: the human-readable table on stdout plus machine-readable JSON
 * in BENCH_kernels.json (auto-injected; pass your own --benchmark_out=
 * to override). The JSON context records dota_threads and simd_isa so a
 * number is always attributable to a configuration.
 *
 * `--smoke` runs a fixed-shape dense-vs-sparse attention comparison and
 * exits non-zero unless the sparse path is faster at 25% retention and
 * bitwise equal to the dense masked computation — the CI guard that
 * the row attention kernel actually delivers the omission speedup — and
 * unless a causal MultiHeadAttention forward with the DOTA detector
 * installed, detection included, beats the dense forward at n = 2048.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "detect/detector.hpp"
#include "nn/attention.hpp"
#include "sched/dataflow.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/int8_gemm.hpp"
#include "tensor/int_softmax.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"
#include "tensor/rows_attention.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse_mask.hpp"
#include "tensor/topk.hpp"
#include "workloads/mask_synth.hpp"

using namespace dota;

namespace {

void
BM_Gemm(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    Rng rng(1);
    const Matrix a = Matrix::randomNormal(n, n, rng);
    const Matrix b = Matrix::randomNormal(n, n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(matmul(a, b));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void
BM_GemmBT(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    Rng rng(2);
    const Matrix a = Matrix::randomNormal(n, 64, rng);
    const Matrix b = Matrix::randomNormal(n, 64, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(matmulBT(a, b));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n * n * 64));
}
BENCHMARK(BM_GemmBT)->Arg(128)->Arg(384);

void
BM_Int8Gemm(benchmark::State &state)
{
    // End-to-end int8 GEMM C = A * B^T on pre-quantized codes (the
    // weight side is quantized once at plan build time), including the
    // fp32 dequantization of the output — directly comparable to
    // BM_Gemm's n^3 MACs.
    const auto n = static_cast<size_t>(state.range(0));
    Rng rng(9);
    const Matrix a = Matrix::randomNormal(n, n, rng);
    const Matrix b = Matrix::randomNormal(n, n, rng);
    const U8Tensor qa = quantizeU8(a, chooseSymmetricScale(a, 7).scale);
    const Int8Tensor qb = quantizeS8(b, chooseSymmetricScale(b, 8).scale);
    for (auto _ : state)
        benchmark::DoNotOptimize(int8MatmulBT(qa, qb));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_Int8Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void
BM_QuantizedDetectionGemm(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    Rng rng(3);
    const Matrix q = Matrix::randomNormal(n, 16, rng);
    const Matrix k = Matrix::randomNormal(n, 16, rng);
    const QuantizedMatrix qq = quantize(q, 8);
    const QuantizedMatrix qk = quantize(k, 8);
    for (auto _ : state)
        benchmark::DoNotOptimize(quantizedMatmulBT(qq, qk));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n * n * 16));
}
BENCHMARK(BM_QuantizedDetectionGemm)->Arg(128)->Arg(384);

void
BM_TopkMask(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    Rng rng(4);
    const Matrix s = Matrix::randomNormal(n, n, rng);
    const size_t k = n / 10;
    for (auto _ : state)
        benchmark::DoNotOptimize(topkMask(s, k));
}
BENCHMARK(BM_TopkMask)->Arg(128)->Arg(512);

/** Model shape of the detector benchmarks: d = 256, 4 heads. */
TransformerConfig
detectorBenchModel()
{
    TransformerConfig mc;
    mc.dim = 256;
    mc.heads = 4;
    mc.layers = 1;
    mc.ffn_dim = 1024;
    return mc;
}

/** An inference DotaDetector: top-k at 25% retention, no training. */
DetectorConfig
inferenceDetectorConfig()
{
    DetectorConfig dc;
    dc.retention = 0.25;
    dc.train = false;
    return dc;
}

void
BM_DetectorSelect(benchmark::State &state)
{
    // One causal head's detection at inference: Q~/K~ projections, the
    // row-tiled estimate and the radix top-k straight into CSR rows.
    const auto n = static_cast<size_t>(state.range(0));
    const TransformerConfig mc = detectorBenchModel();
    DotaDetector det(mc, inferenceDetectorConfig());
    Rng rng(11);
    det.beginLayer(0, Matrix::randomNormal(n, mc.dim, rng));
    for (auto _ : state)
        benchmark::DoNotOptimize(det.selectSparseMask(0, 0, true));
}
BENCHMARK(BM_DetectorSelect)->Arg(512)->Arg(2048);

void
BM_Softmax(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    Rng rng(5);
    const Matrix s = Matrix::randomNormal(n, n, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(rowSoftmax(s));
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(512);

void
BM_LocalityAwareScheduler(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    Rng rng(6);
    MaskProfile p = profileFor(BenchmarkId::Text, 0.1);
    const SparseMask mask = synthesizeMask(n, p, rng);
    for (auto _ : state) {
        const auto stats =
            analyzeDataflow(mask, Dataflow::TokenParallelOoO, 4);
        benchmark::DoNotOptimize(stats.key_loads);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(mask.nnz()));
}
BENCHMARK(BM_LocalityAwareScheduler)->Arg(512)->Arg(2048);

void
BM_DetectorEstimate(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    TransformerConfig mc;
    mc.in_dim = 16;
    mc.dim = 64;
    mc.heads = 4;
    mc.layers = 1;
    mc.ffn_dim = 128;
    DetectorConfig dc;
    dc.sigma = 0.25;
    DotaDetector det(mc, dc);
    Rng rng(7);
    const Matrix x = Matrix::randomNormal(n, 64, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(det.estimateScores(0, 0, x));
}
BENCHMARK(BM_DetectorEstimate)->Arg(128)->Arg(384);

// ---------------------------------------------------------------------
// Retention sweep: the attention core (S = QK^T, masked softmax, A*V)
// computed densely vs with the row attention kernel, for one head at
// n = 512, head_dim = 64. The benchmark argument is retention in
// per-mille (1000 = dense work on a full mask, 125 = 12.5% kept), the
// sweep the README's software-speedup table reports. Both variants see
// the SAME top-k mask, so the comparison isolates kernel work, not mask
// quality.
// ---------------------------------------------------------------------

constexpr size_t kAttnSeq = 512;
constexpr size_t kAttnHeadDim = 64;

struct AttentionProblem
{
    Matrix q, k, v;
    Matrix mask;      ///< dense 0/1 keep mask
    SparseMask smask; ///< same mask, sparse form
    float scale = 0.0f;
};

AttentionProblem
attentionProblem(size_t n, size_t d, double retention)
{
    Rng rng(8);
    AttentionProblem p;
    p.q = Matrix::randomNormal(n, d, rng);
    p.k = Matrix::randomNormal(n, d, rng);
    p.v = Matrix::randomNormal(n, d, rng);
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(retention * static_cast<double>(n)));
    const Matrix proxy_scores = Matrix::randomNormal(n, n, rng);
    p.mask = topkMask(proxy_scores, keep);
    p.smask = SparseMask::fromDense(p.mask);
    p.scale = 1.0f / std::sqrt(static_cast<float>(d));
    return p;
}

Matrix
denseMaskedAttention(const AttentionProblem &p)
{
    const Matrix s = matmulBT(p.q, p.k);
    const Matrix a = rowSoftmaxMasked(scale(s, p.scale), p.mask);
    return matmul(a, p.v);
}

void
BM_AttentionDense(benchmark::State &state)
{
    const AttentionProblem p = attentionProblem(
        kAttnSeq, kAttnHeadDim, state.range(0) / 1000.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(denseMaskedAttention(p));
}
BENCHMARK(BM_AttentionDense)->Arg(1000)->Arg(500)->Arg(250)->Arg(125);

void
BM_AttentionSparse(benchmark::State &state)
{
    const AttentionProblem p = attentionProblem(
        kAttnSeq, kAttnHeadDim, state.range(0) / 1000.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            rowsAttention(p.q, p.k, p.v, &p.smask, false, p.scale));
}
BENCHMARK(BM_AttentionSparse)->Arg(1000)->Arg(500)->Arg(250)->Arg(125);

/**
 * One head of dynamically-quantized integer attention: per-tensor
 * scales from the live Q/K/V, u8 x s8 maddubs score GEMM, integer
 * softmax, int8 A*V. Quantization rides inside the measured region
 * because a dynamically-scaled head pays it per forward.
 */
Matrix
int8MaskedAttention(const AttentionProblem &p)
{
    const size_t n = p.q.rows();
    const U8Tensor qq =
        quantizeU8(p.q, chooseSymmetricScale(p.q, 7).scale);
    const Int8Tensor qk =
        quantizeS8(p.k, chooseSymmetricScale(p.k, 8).scale);
    const Int8Tensor vt =
        quantizeS8Transposed(p.v, chooseSymmetricScale(p.v, 8).scale);
    std::vector<int32_t> raw(n * n);
    int8GemmBT(qq, qk, raw.data());
    const IntSoftmaxLut lut(qq.scale * qk.scale * p.scale);
    U8Tensor probs;
    probs.rows = n;
    probs.k = n;
    probs.scale = lut.probScale();
    probs.zero_point = 0;
    probs.codes.resize(n * n);
    for (size_t i = 0; i < n; ++i)
        lut.softmaxRow(raw.data() + i * n, n, p.mask.row(i),
                       probs.codes.data() + i * n);
    return int8MatmulBT(probs, vt);
}

void
BM_AttentionInt8(benchmark::State &state)
{
    const AttentionProblem p = attentionProblem(
        kAttnSeq, kAttnHeadDim, state.range(0) / 1000.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(int8MaskedAttention(p));
}
BENCHMARK(BM_AttentionInt8)->Arg(1000)->Arg(500)->Arg(250)->Arg(125);

// ---------------------------------------------------------------------
// Smoke mode (CI guard)
// ---------------------------------------------------------------------

/** Best-of-reps wall time of @p fn, in seconds. */
template <typename Fn>
double
bestSeconds(Fn &&fn, int reps)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(fn());
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

int runDetectedMhaSmoke();
int runInt8Smoke();

/**
 * Fixed-shape dense-vs-sparse comparison: sparse must be (a) bitwise
 * equal to the dense masked computation and (b) strictly faster at 25%
 * retention. Returns a process exit code. Chains into runInt8Smoke().
 */
int
runSmoke()
{
    const AttentionProblem p =
        attentionProblem(kAttnSeq, kAttnHeadDim, 0.25);
    const Matrix dense = denseMaskedAttention(p);
    const Matrix sparse =
        rowsAttention(p.q, p.k, p.v, &p.smask, false, p.scale);
    if (dense.rows() != sparse.rows() || dense.cols() != sparse.cols()) {
        std::fprintf(stderr, "smoke: shape mismatch\n");
        return 1;
    }
    for (size_t i = 0; i < dense.size(); ++i) {
        if (dense.data()[i] != sparse.data()[i]) {
            std::fprintf(stderr,
                         "smoke: sparse attention diverges from the dense "
                         "masked computation at flat index %zu "
                         "(%.9g vs %.9g)\n",
                         i, static_cast<double>(dense.data()[i]),
                         static_cast<double>(sparse.data()[i]));
            return 1;
        }
    }
    const int reps = 20;
    const double td = bestSeconds([&] { return denseMaskedAttention(p); },
                                  reps);
    const double ts = bestSeconds(
        [&] {
            return rowsAttention(p.q, p.k, p.v, &p.smask, false, p.scale);
        },
        reps);
    std::printf("smoke: n=%zu d=%zu retention=25%% isa=%s threads=%zu\n"
                "smoke: dense %.3f ms, sparse %.3f ms (%.2fx)\n",
                kAttnSeq, kAttnHeadDim, simdIsaName(activeSimdIsa()),
                ThreadPool::globalConcurrency(), td * 1e3, ts * 1e3,
                td / ts);
    if (ts >= td) {
        std::fprintf(stderr,
                     "smoke: FAIL — sparse attention is not faster than "
                     "dense at 25%% retention\n");
        return 1;
    }
    return runDetectedMhaSmoke();
}

/**
 * Detection included: a causal MultiHeadAttention (d = 256, 4 heads)
 * forward with an inference DotaDetector (top-k, 25% retention)
 * installed, against the same layer's hook-free dense forward. The
 * detected forward pays for the Q~/K~ projections, the estimate and the
 * selection, then runs the row kernel; it must win at n = 2048. The
 * ratios at 512 and 1024 are printed only (n = 512 is about break-even).
 * Chains into runInt8Smoke().
 */
int
runDetectedMhaSmoke()
{
    const TransformerConfig mc = detectorBenchModel();
    DotaDetector det(mc, inferenceDetectorConfig());
    Rng rng(12);
    MultiHeadAttention attn("smoke", 0, mc.dim, mc.heads, rng,
                            /*causal=*/true);
    const int reps = 3;
    double ratio = 0.0;
    for (size_t n : {512u, 1024u, 2048u}) {
        const Matrix x = Matrix::randomNormal(n, mc.dim, rng);
        attn.setHook(nullptr);
        const double td = bestSeconds([&] { return attn.forward(x); }, reps);
        attn.setHook(&det);
        const double tdet =
            bestSeconds([&] { return attn.forward(x); }, reps);
        const std::vector<AttnBackendKind> &paths = attn.lastBackends();
        if (std::find(paths.begin(), paths.end(), AttnBackendKind::Dense) !=
            paths.end()) {
            std::fprintf(stderr, "smoke: FAIL — the detected forward did "
                                 "not take the sparse path\n");
            return 1;
        }
        ratio = tdet / td;
        std::printf("smoke: causal MHA d=%zu heads=%zu n=%zu: dense %.2f "
                    "ms, DOTA@25%% incl. detection %.2f ms (%.2fx dense)\n",
                    mc.dim, mc.heads, n, td * 1e3, tdet * 1e3, ratio);
    }
    if (ratio >= 1.0) {
        std::fprintf(stderr,
                     "smoke: FAIL — the detected MHA forward is not faster "
                     "than dense at n=2048\n");
        return 1;
    }
    return runInt8Smoke();
}

/**
 * Int8 GEMM guard: every compiled kernel instantiation must agree
 * exactly (the saturation-free maddubs scheme makes the s32 sums exact,
 * so portable-vs-AVX2 parity is bitwise, not tolerance-level), and on
 * AVX2 the int8 path must beat the fp32 GEMM at 512^3.
 */
int
runInt8Smoke()
{
    const size_t n = 512;
    Rng rng(10);
    const Matrix a = Matrix::randomNormal(n, n, rng);
    const Matrix b = Matrix::randomNormal(n, n, rng);
    const U8Tensor qa = quantizeU8(a, chooseSymmetricScale(a, 7).scale);
    const Int8Tensor qb = quantizeS8(b, chooseSymmetricScale(b, 8).scale);

    // Exact agreement between the active and portable instantiations.
    std::vector<int32_t> c_active(n * n), c_portable(n * n);
    activeGemmKernels().int8GemmBTRows(qa.codes.data(), qb.codes.data(),
                                       c_active.data(), n, n, 0, n);
    detail::portableGemmKernels().int8GemmBTRows(
        qa.codes.data(), qb.codes.data(), c_portable.data(), n, n, 0, n);
    for (size_t i = 0; i < n * n; ++i) {
        if (c_active[i] != c_portable[i]) {
            std::fprintf(stderr,
                         "smoke: FAIL — int8 %s kernel diverges from the "
                         "portable kernel at flat index %zu (%d vs %d)\n",
                         simdIsaName(activeSimdIsa()), i, c_active[i],
                         c_portable[i]);
            return 1;
        }
    }

    const int reps = 20;
    const double tf = bestSeconds([&] { return matmulBT(a, b); }, reps);
    const double ti = bestSeconds([&] { return int8MatmulBT(qa, qb); },
                                  reps);
    const double gmacs = static_cast<double>(n) * static_cast<double>(n) *
                         static_cast<double>(n) * 1e-9;
    std::printf("smoke: int8 gemm n=%zu isa=%s threads=%zu\n"
                "smoke: fp32 %.3f ms (%.2f GMAC/s), int8 %.3f ms "
                "(%.2f GMAC/s) — %.2fx\n",
                n, simdIsaName(activeSimdIsa()),
                ThreadPool::globalConcurrency(), tf * 1e3, gmacs / tf,
                ti * 1e3, gmacs / ti, tf / ti);
    if (activeSimdIsa() == SimdIsa::Avx2 && ti >= tf) {
        std::fprintf(stderr,
                     "smoke: FAIL — int8 GEMM is not faster than fp32 "
                     "at 512^3 on AVX2\n");
        return 1;
    }
    std::printf("smoke: PASS\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool smoke = false;
    for (auto it = args.begin(); it != args.end();) {
        if (std::strcmp(*it, "--smoke") == 0) {
            smoke = true;
            it = args.erase(it);
        } else {
            ++it;
        }
    }
    if (smoke)
        return runSmoke();

    // Machine-readable output rides along by default (satellite of the
    // kernel-vectorization PR): inject a JSON --benchmark_out unless the
    // caller already chose one.
    bool has_out = false;
    for (char *a : args)
        if (std::strncmp(a, "--benchmark_out=", 16) == 0)
            has_out = true;
    std::string out_flag = "--benchmark_out=BENCH_kernels.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }

    int our_argc = static_cast<int>(args.size());
    benchmark::Initialize(&our_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(our_argc, args.data()))
        return 1;
    // Surface the parallel-execution configuration in the report header
    // so GEMM numbers are attributable to a thread count and ISA path.
    benchmark::AddCustomContext(
        "dota_threads",
        std::to_string(dota::ThreadPool::globalConcurrency()));
    benchmark::AddCustomContext("simd_isa",
                                simdIsaName(activeSimdIsa()));
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
