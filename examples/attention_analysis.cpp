/**
 * @file
 * Domain example: measuring *why* DOTA's joint optimization works — the
 * Section 3.3 claim that L = L_model + lambda*L_MSE "not only makes S~ a
 * better estimation of S, but also makes S easier to be estimated by a
 * low-rank matrix, i.e., by reducing the rank of S".
 *
 * The example trains the same model three ways (dense; adapted with a
 * frozen detector; jointly optimized with the score-gradient injection)
 * and reports the effective rank and low-rank spectral energy of the
 * attention score matrices, plus the detector's estimation loss.
 *
 * Run: ./build/examples/attention_analysis
 */
#include <iostream>

#include "core/dota.hpp"
#include "tensor/linalg.hpp"

using namespace dota;

namespace {

/** Mean effective rank / top-k spectral energy of S across heads. */
struct SpectralSummary
{
    double eff_rank = 0.0;
    double energy_topk = 0.0; ///< share captured by rank k_detector
};

SpectralSummary
measureScores(TransformerClassifier &model, const SyntheticTask &task,
              size_t k, size_t samples = 3)
{
    Rng rng(99);
    SpectralSummary s;
    size_t count = 0;
    for (size_t i = 0; i < samples; ++i) {
        model.forward(task.sample(rng).features);
        for (auto &blk : model.blocks()) {
            for (const Matrix &scores : blk->attention().lastScores()) {
                s.eff_rank += effectiveRank(
                    scores, std::min<size_t>(scores.rows(), 24));
                s.energy_topk += spectralEnergyTopK(scores, k);
                ++count;
            }
        }
    }
    s.eff_rank /= static_cast<double>(count);
    s.energy_topk /= static_cast<double>(count);
    return s;
}

} // namespace

int
main()
{
    std::cout << "== Why joint optimization works: the rank of S ==\n\n";

    const Benchmark &bench = benchmark(BenchmarkId::Text);
    TaskConfig tc;
    tc.seq_len = 64;
    tc.in_dim = bench.tiny.in_dim;
    tc.classes = bench.tiny.classes;
    tc.signal_count = 6;
    tc.locality = 0.5;
    tc.label_noise = 0.1;
    tc.signal_strength = 2.0;
    SyntheticTask task(tc);

    // Dense pre-training, shared by all variants.
    TransformerClassifier dense_model(bench.tiny);
    TrainConfig pre;
    pre.steps = 120;
    pre.batch = 8;
    ClassifierTrainer pret(dense_model, task, pre);
    pret.train();

    struct Variant
    {
        const char *name;
        bool adapt;  ///< run the masked adaptation phase
        double lambda;
        bool inject;
    };
    const Variant variants[] = {
        {"dense (no adaptation)", false, 0.0, false},
        {"adapted, no injection (lambda -> detector only)", true, 1e-3,
         false},
        {"jointly optimized (lambda * dL_MSE/dS injected)", true, 0.05,
         true},
    };

    Table t("Spectral structure of attention scores S (Text task)");
    t.header({"training", "accuracy @10%", "eff. rank of S",
              "energy in rank-k", "detector MSE"});
    for (const Variant &v : variants) {
        TransformerClassifier model(bench.tiny);
        copyParams(dense_model, model);
        DetectorConfig dc;
        dc.retention = 0.10;
        dc.sigma = 0.5;
        dc.lambda = v.lambda;
        dc.inject_model_grad = v.inject;
        DotaDetector det(bench.tiny, dc);
        warmupDetector(model, task, det, 60, 4, 5e-3);

        if (v.adapt) {
            TrainConfig ad;
            ad.steps = 120;
            ad.batch = 8;
            ad.adam.lr = 3e-4;
            adaptJointly(model, task, det, ad);
        }

        // Evaluate with omission enabled.
        det.config().apply_mask = true;
        det.config().train = false;
        model.setHook(&det);
        const double acc =
            evaluate(task, [&](const Matrix &x) { return model.forward(x); },
                     150)
                .metric;
        det.consumeMseLoss();
        Rng probe(5);
        // The inference-time L_MSE probe needs observeScores to fire, so
        // force the dense path (the sparse path never materializes S).
        model.setForceDense(true);
        model.forward(task.sample(probe).features);
        model.setForceDense(false);
        const double mse = det.consumeMseLoss();
        model.setHook(nullptr);

        const SpectralSummary spec =
            measureScores(model, task, det.rank());
        t.addRow({v.name, fmtPct(acc), fmtNum(spec.eff_rank, 2),
                  fmtPct(spec.energy_topk), fmtNum(mse, 1)});
    }
    t.print(std::cout);
    std::cout << "\nExpected shape (Section 3.3): the injected gradient "
                 "lowers the effective rank\nof S and the estimation "
                 "loss, at some accuracy cost on a saturated task —\n"
                 "the trade-off lambda controls.\n";
    return 0;
}
