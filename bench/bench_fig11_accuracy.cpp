/**
 * @file
 * Figure 11 reproduction: model quality vs. retention ratio across the
 * five benchmarks, comparing the dense baseline, DOTA (jointly-optimized
 * detector + model adaptation) and ELSA (training-free sign-random-
 * projection detection).
 *
 * Proxy tasks stand in for SQuAD/LRA/WikiText (DESIGN.md §1); the claim
 * reproduced is the *shape*: DOTA tracks the dense baseline down to
 * 5-10% retention while ELSA degrades markedly at equal retention, and
 * the gap grows with sparsity. Also includes the two algorithm ablations
 * DESIGN.md §4 calls out (joint optimization, row-balance constraint).
 */
#include <iostream>

#include "bench_util.hpp"
#include "core/dota.hpp"

using namespace dota;

namespace {

/** Calibration batch: a few task samples from a fixed stream. */
std::vector<Matrix>
calibFeatures(const SyntheticTask &task, size_t n)
{
    Rng rng(31);
    std::vector<Matrix> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(task.sample(rng).features);
    return out;
}

// Proxy task construction lives in workloads/benchmark.cpp
// (proxyTaskFor / proxyGrammarFor) so the CLI trainer and this
// reproduction share one definition.

PipelineConfig
pipelineBudget()
{
    PipelineConfig pc;
    pc.pretrain.steps = bench::budget(120);
    pc.warmup_steps = bench::budget(60);
    pc.adapt.steps = bench::budget(120);
    return pc;
}

DetectorConfig
detectorFor(const Benchmark &b, double retention)
{
    DetectorConfig dc;
    dc.retention = retention;
    dc.sigma = b.tiny_sigma;
    dc.bits = 4;
    // Small lambda: the detector tracks the drifting scores during
    // adaptation at full strength (Adam is scale-invariant), while the
    // dL_MSE/dS injection stays a gentle regularizer. See
    // EXPERIMENTS.md for the lambda sensitivity discussion.
    dc.lambda = 1e-3;
    return dc;
}

void
runClassificationBenchmark(const Benchmark &b)
{
    const SyntheticTask task(proxyTaskFor(b));
    const size_t eval_n = bench::fastMode() ? 40 : 150;
    const std::vector<double> retentions{0.10, 0.05, 0.025};

    // Dense baseline, trained once and reused as the starting point of
    // every sweep point via copyParams.
    TransformerClassifier dense_model(b.tiny);
    PipelineConfig pc = pipelineBudget();
    ClassifierTrainer pre(dense_model, task, pc.pretrain);
    pre.train();
    const EvalResult dense = pre.evaluate(eval_n);

    // Int8 series (DESIGN.md §16): calibrate the trained models on a
    // small fixed batch, quantize, evaluate the same eval stream.
    const std::vector<Matrix> calib = calibFeatures(task, 8);
    const Int8Plan dense_plan = quantizeClassifier(
        dense_model, calibrateClassifier(dense_model, calib));
    const EvalResult dense_i8 = evaluate(
        task,
        [&](const Matrix &x) {
            return int8Forward(dense_model, dense_plan, x);
        },
        eval_n);

    Table t(format("{} — {}", b.name, b.description));
    t.header({"retention", "dense", "dense-int8", "DOTA", "DOTA-int8",
              "ELSA", "A3", "static", "token-prune", "paper trend"});

    for (double r : retentions) {
        // DOTA: fork the dense model, warm up, jointly adapt.
        TransformerClassifier model(b.tiny);
        copyParams(dense_model, model);
        DotaDetector det(b.tiny, detectorFor(b, r));
        warmupAndAdapt(model, task, det, pc);
        const EvalResult dota = evaluate(
            task, [&](const Matrix &x) { return model.forward(x); },
            eval_n);

        // DOTA-int8: the jointly-adapted model quantized, with the
        // trained detector still gating the integer softmax (hooks are
        // honored on the int8 path). Calibration records the dense
        // fp32 ranges: it never consults the installed detector.
        const Int8Plan dota_plan = quantizeClassifier(
            model, calibrateClassifier(model, calib));
        const EvalResult dota_i8 = evaluate(
            task,
            [&](const Matrix &x) { return int8Forward(model, dota_plan, x); },
            eval_n);
        model.setHook(nullptr);

        // Training-free baselines on the dense model at equal
        // retention: ELSA (sign random projection), A^3 (sorted-dim
        // candidate search), a static window+global pattern, and
        // SpAtten-style whole-token pruning.
        ElsaDetectorConfig ec;
        ec.retention = r;
        // Budget-matched hash width: ELSA spends m*dh FX16 MACs per
        // hashed vector vs DOTA's k*d INT4 MACs per token; m = 8 at
        // head_dim 16 is already ~4x DOTA's detection cost.
        ec.hash_bits = 8;
        ElsaDetector elsa(ec);
        dense_model.setHook(&elsa);
        const EvalResult elsa_eval = pre.evaluate(eval_n);

        A3Config a3c;
        a3c.retention = r;
        a3c.iterations = 8;
        A3Detector a3(a3c);
        dense_model.setHook(&a3);
        const EvalResult a3_eval = pre.evaluate(eval_n);

        StaticPatternConfig spc;
        spc.retention = r;
        StaticPatternDetector stat(spc);
        dense_model.setHook(&stat);
        const EvalResult static_eval = pre.evaluate(eval_n);

        TokenPruningConfig tpc;
        tpc.retention = r;
        TokenPruningDetector prune(tpc);
        dense_model.setHook(&prune);
        const EvalResult prune_eval = pre.evaluate(eval_n);
        dense_model.setHook(nullptr);

        t.addRow({fmtPct(r), fmtPct(dense.metric),
                  fmtPct(dense_i8.metric), fmtPct(dota.metric),
                  fmtPct(dota_i8.metric), fmtPct(elsa_eval.metric),
                  fmtPct(a3_eval.metric), fmtPct(static_eval.metric),
                  fmtPct(prune_eval.metric),
                  "DOTA ~dense; others degrade"});
    }
    t.print(std::cout);
    std::cout << "\n";
}

void
runLmBenchmark(const Benchmark &b)
{
    SyntheticGrammar grammar(proxyGrammarFor(b));
    const size_t eval_n = bench::fastMode() ? 10 : 40;
    const std::vector<double> retentions{0.25, 0.10};

    TransformerConfig cfg = b.tiny;
    cfg.max_seq = 128;
    CausalLM dense_model(cfg);
    PipelineConfig pc = pipelineBudget();
    LMTrainer pre(dense_model, grammar, pc.pretrain);
    pre.train();
    const EvalResult dense = pre.evaluate(eval_n);

    // Int8 series: calibrate on a few grammar samples, quantize, score
    // the same eval stream through the integer path.
    std::vector<std::vector<int>> lm_calib;
    {
        Rng rng(31);
        for (size_t i = 0; i < 8; ++i)
            lm_calib.push_back(grammar.sample(rng));
    }
    const Int8Plan dense_plan =
        quantizeLM(dense_model, calibrateLM(dense_model, lm_calib));
    const EvalResult dense_i8 = evaluate(
        grammar,
        [&](const std::vector<int> &ids) {
            return int8Forward(dense_model, dense_plan, ids);
        },
        eval_n);

    Table t(format("{} — {} (perplexity, lower is better)", b.name,
                   b.description));
    t.header({"retention", "dense ppl", "dense-int8 ppl", "DOTA ppl",
              "DOTA-int8 ppl", "ELSA ppl", "paper trend"});
    for (double r : retentions) {
        CausalLM model(cfg);
        copyParams(dense_model, model);
        DotaDetector det(cfg, detectorFor(b, r));
        warmupAndAdapt(model, grammar, det, pc);
        const EvalResult dota = evaluate(
            grammar,
            [&](const std::vector<int> &ids) { return model.forward(ids); },
            eval_n);

        // DOTA-int8: quantize the adapted LM with the detector gating
        // the integer softmax (calibration and eval both run masked).
        const Int8Plan dota_plan =
            quantizeLM(model, calibrateLM(model, lm_calib));
        const EvalResult dota_i8 = evaluate(
            grammar,
            [&](const std::vector<int> &ids) {
                return int8Forward(model, dota_plan, ids);
            },
            eval_n);
        model.setHook(nullptr);

        ElsaDetectorConfig ec;
        ec.retention = r;
        ec.hash_bits = 8; // budget-matched, see classification path
        ElsaDetector elsa(ec);
        dense_model.setHook(&elsa);
        const EvalResult elsa_eval = pre.evaluate(eval_n);
        dense_model.setHook(nullptr);

        t.addRow({fmtPct(r), fmtNum(dense.metric, 2),
                  fmtNum(dense_i8.metric, 2), fmtNum(dota.metric, 2),
                  fmtNum(dota_i8.metric, 2), fmtNum(elsa_eval.metric, 2),
                  "DOTA ~dense; ELSA ppl blows up"});
    }
    t.print(std::cout);
    std::cout << "\n";
}

/** Ablations on the Text task (DESIGN.md §4). */
void
runAblations()
{
    printBanner(std::cout, "Ablations (Text task, retention 10%)");
    const Benchmark &b = benchmark(BenchmarkId::Text);
    const SyntheticTask task(proxyTaskFor(b));
    const size_t eval_n = bench::fastMode() ? 40 : 150;
    PipelineConfig pc = pipelineBudget();

    TransformerClassifier dense_model(b.tiny);
    ClassifierTrainer pre(dense_model, task, pc.pretrain);
    pre.train();

    struct Variant
    {
        std::string name;
        bool warmup;
        bool joint;       ///< detector trained during adaptation
        bool balanced;    ///< top-k (true) vs threshold (false)
    };
    const Variant variants[] = {
        {"full DOTA (warmup + joint + balanced)", true, true, true},
        {"no detector warmup", false, true, true},
        {"no joint optimization (frozen detector)", true, false, true},
        {"unbalanced threshold selection", true, true, false},
    };

    Table t;
    t.header({"variant", "accuracy @10%"});
    for (const Variant &v : variants) {
        TransformerClassifier model(b.tiny);
        copyParams(dense_model, model);
        DotaDetector det(b.tiny, detectorFor(b, 0.10));
        if (v.warmup)
            warmupDetector(model, task, det, pc.warmup_steps,
                           pc.warmup_batch, pc.warmup_lr);
        if (!v.balanced) // the library's comparator threshold at ~10%
            calibrateThreshold(model, task, det, 0.10);
        if (v.joint) {
            adaptJointly(model, task, det, pc.adapt);
        } else {
            // Adapt the model alone to the frozen warmed-up detector.
            det.config().apply_mask = true;
            det.config().train = false;
            model.setHook(&det);
            ClassifierTrainer(model, task, pc.adapt).train();
        }
        const EvalResult res = evaluate(
            task, [&](const Matrix &x) { return model.forward(x); },
            eval_n);
        model.setHook(nullptr);
        t.addRow({v.name, fmtPct(res.metric)});
    }
    t.print(std::cout);
}

} // namespace

int
main()
{
    bench::banner("Figure 11: accuracy vs. retention — DOTA vs ELSA vs "
                  "dense",
                  "DOTA Figure 11 (all five benchmarks; paper shows DOTA "
                  "matching dense at 3-10% retention while ELSA falls "
                  "behind at equal retention)");

    for (const Benchmark &b : allBenchmarks()) {
        if (b.id == BenchmarkId::LM)
            runLmBenchmark(b);
        else
            runClassificationBenchmark(b);
    }
    runAblations();
    return 0;
}
