/**
 * @file
 * Figure 14 reproduction (design-space exploration of the detector on
 * the Text benchmark at 10% retention):
 *  (a) accuracy vs. dimension-reduction factor sigma,
 *  (b) accuracy vs. detection quantization precision.
 *
 * Paper numbers for reference — (a) sigma 0.10/0.16/0.20/0.25/0.33 ->
 * 62.82/65.08/65.27/65.46/65.63 vs dense 65.12; (b) INT2/INT4/INT8/
 * INT16/FP32 -> 64.45/65.56/65.69/65.63/65.63. The reproduced claim:
 * accuracy saturates at small sigma and at INT4, so detection can be
 * cheap.
 */
#include <iostream>

#include "bench_util.hpp"
#include "core/dota.hpp"

using namespace dota;

namespace {

/** Run warmup + joint adaptation from a shared dense model. */
double
adaptedAccuracy(TransformerClassifier &model, const SyntheticTask &task,
                DetectorConfig dc, const PipelineConfig &pc, size_t eval_n)
{
    DotaDetector det(model.config(), dc);
    warmupAndAdapt(model, task, det, pc);
    const double acc =
        evaluate(task, [&](const Matrix &x) { return model.forward(x); },
                 eval_n)
            .metric;
    model.setHook(nullptr);
    return acc;
}

} // namespace

int
main()
{
    bench::banner("Figure 14: detector design-space exploration (Text, "
                  "retention 10%)",
                  "DOTA Figure 14(a) sigma sweep + 14(b) precision sweep");

    const Benchmark &b = benchmark(BenchmarkId::Text);
    TaskConfig tc;
    tc.in_dim = b.tiny.in_dim;
    tc.classes = b.tiny.classes;
    tc.seq_len = 64;
    tc.signal_count = 6;
    tc.locality = 0.5;
    tc.label_noise = 0.1;
    tc.signal_strength = 2.0;
    tc.seed = 133;
    const SyntheticTask task(tc);
    const size_t eval_n = bench::fastMode() ? 40 : 150;

    PipelineConfig pc;
    pc.pretrain.steps = bench::budget(120);
    pc.warmup_steps = bench::budget(60);
    pc.adapt.steps = bench::budget(100);

    TransformerClassifier dense_model(b.tiny);
    ClassifierTrainer pre(dense_model, task, pc.pretrain);
    pre.train();
    const double dense_acc = pre.evaluate(eval_n).metric;
    std::cout << "dense baseline accuracy: " << fmtPct(dense_acc)
              << "  (paper: 65.12)\n\n";

    // ---- (a) sigma sweep at INT4.
    {
        Table t("Figure 14(a): accuracy vs dimension-reduction sigma "
                "(INT4, retention 10%)");
        t.header({"sigma", "rank k (of head_dim 16)", "accuracy",
                  "paper (of 64-dim heads)"});
        const double paper[] = {62.82, 65.08, 65.27, 65.46, 65.63};
        const double sigmas[] = {0.10, 0.16, 0.20, 0.25, 0.33};
        const size_t seeds = bench::fastMode() ? 1 : 2;
        for (int i = 0; i < 5; ++i) {
            double acc = 0.0;
            for (size_t seed = 0; seed < seeds; ++seed) {
                TransformerClassifier model(b.tiny);
                copyParams(dense_model, model);
                DetectorConfig dc;
                dc.retention = 0.10;
                dc.sigma = sigmas[i];
                dc.bits = 4;
                dc.lambda = 1e-3;
                dc.seed = 17 + seed;
                acc += adaptedAccuracy(model, task, dc, pc, eval_n);
            }
            acc /= static_cast<double>(seeds);
            const size_t k = std::max<size_t>(
                1, static_cast<size_t>(sigmas[i] *
                                       b.tiny.headDim()));
            t.addRow({fmtNum(sigmas[i], 2),
                      fmtNum(static_cast<double>(k), 0), fmtPct(acc),
                      fmtNum(paper[i], 2)});
        }
        t.print(std::cout);
        std::cout << "\n";
    }

    // ---- (b) precision sweep at sigma 0.5.
    {
        Table t("Figure 14(b): accuracy vs detection precision "
                "(sigma 0.5, retention 10%)");
        t.header({"precision", "accuracy", "paper"});
        struct Point { const char *name; int bits; bool quant; double paper; };
        const Point points[] = {
            {"INT2", 2, true, 64.45},  {"INT4", 4, true, 65.56},
            {"INT8", 8, true, 65.69},  {"INT16", 16, true, 65.63},
            {"FP32", 32, false, 65.63},
        };
        for (const Point &p : points) {
            TransformerClassifier model(b.tiny);
            copyParams(dense_model, model);
            DetectorConfig dc;
            dc.retention = 0.10;
            dc.sigma = 0.5;
            dc.bits = p.bits;
            dc.quantize = p.quant;
            dc.lambda = 1e-3;
            const double acc =
                adaptedAccuracy(model, task, dc, pc, eval_n);
            t.addRow({p.name, fmtPct(acc), fmtNum(p.paper, 2)});
        }
        t.print(std::cout);
    }
    std::cout << "\nClaim reproduced when accuracy saturates by "
                 "sigma ~0.2-0.33 and by INT4.\n";
    return 0;
}
