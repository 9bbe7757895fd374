/**
 * @file
 * Domain example: autoregressive language-model inference (the decoder
 * processing of Section 4.4).
 *
 * Two parts:
 *  1. Algorithm — train a tiny causal LM on the synthetic long-range
 *     copy grammar, enable detection at 25% retention, and actually
 *     *generate* token streams, showing the copy dependency survives
 *     omission.
 *  2. Architecture — compare single-pass scoring vs autoregressive
 *     generation on the paper-scale GPT-2 shape: generation is
 *     memory-bound, and detection cuts the K/V traffic (the paper's
 *     decoder argument).
 *
 * Run: ./build/examples/lm_generation
 */
#include <iostream>

#include "core/dota.hpp"

using namespace dota;

namespace {

/** Greedy next-token decode from logits. */
int
greedyNext(const Matrix &logits)
{
    const size_t last = logits.rows() - 1;
    size_t best = 0;
    for (size_t c = 1; c < logits.cols(); ++c)
        if (logits(last, c) > logits(last, best))
            best = c;
    return static_cast<int>(best);
}

} // namespace

int
main()
{
    std::cout << "== Causal LM inference with DOTA ==\n\n";

    // ------------------------------------------------------------------
    // 1. Train a tiny causal LM on the copy grammar.
    // ------------------------------------------------------------------
    const Benchmark &bench = benchmark(BenchmarkId::LM);
    TransformerConfig cfg = bench.tiny;
    cfg.max_seq = 128;
    GrammarConfig gc;
    gc.seq_len = 96;
    gc.vocab = cfg.vocab;
    gc.period = 8; // dense triggers: the copy rule dominates the loss
    SyntheticGrammar grammar(gc);

    CausalLM model(cfg);
    DetectorConfig dc;
    dc.retention = 0.25;
    dc.sigma = 0.5;
    dc.lambda = 1e-3;
    DotaDetector detector(cfg, dc);

    PipelineConfig pc;
    pc.pretrain.steps = 220;
    pc.adapt.steps = 120;
    std::cout << "training causal LM on the long-range copy grammar...\n";
    const PipelineResult res = runPipeline(model, grammar, detector, pc);
    std::cout << "  dense perplexity:        " << fmtNum(res.dense.metric, 2)
              << "\n  DOTA @25% perplexity:    "
              << fmtNum(res.sparse.metric, 2) << "\n\n";

    // Generate: seed with a prefix containing one trigger+payload and
    // check the model copies the payload after the next trigger.
    Rng rng(77);
    auto prefix = grammar.sample(rng);
    prefix.resize(48);
    // Force a trailing trigger so the next token must be the copy.
    int payload = -1;
    for (size_t i = 0; i + 1 < prefix.size(); ++i)
        if (prefix[i] == grammar.triggerToken())
            payload = prefix[i + 1];
    prefix.push_back(grammar.triggerToken());
    const Matrix logits = model.forward(prefix);
    const int predicted = greedyNext(logits);
    const Matrix probs = rowSoftmax(
        logits.rowCopy(logits.rows() - 1));
    const double p_payload =
        probs(0, static_cast<size_t>(payload));
    std::cout << "long-range copy check: previous payload token "
              << payload << ", model (with 25% attention) predicts "
              << predicted
              << (payload == predicted ? " -> copied correctly" : "")
              << "; P(payload) = " << fmtPct(p_payload)
              << " vs ~2% uniform\n\n";

    // ------------------------------------------------------------------
    // 2. Paper-scale decoder processing (GPT-2, n = 4096).
    // ------------------------------------------------------------------
    DotaAccelerator acc(HwConfig::dotaScaledForGpu());
    SimOptions opt;
    Table t("GPT-2 (12 layers, n = 4096) on the DOTA fabric");
    t.header({"execution", "mode", "time", "attention DRAM traffic"});
    for (DotaMode mode : {DotaMode::Full, DotaMode::Conservative}) {
        opt.mode = mode;
        const RunReport scoring = acc.simulate(bench, opt);
        t.addRow({"single-pass scoring", dotaModeName(mode),
                  fmtNum(scoring.timeMs(), 2) + "ms",
                  fmtBytes(double(scoring.per_layer.attention.dram_bytes *
                                  scoring.layers))});
        const RunReport gen = acc.simulateGeneration(bench, opt);
        t.addRow({"autoregressive generation", dotaModeName(mode),
                  fmtNum(gen.timeMs(), 2) + "ms",
                  fmtBytes(double(gen.per_layer.attention.dram_bytes *
                                  gen.layers))});
    }
    t.print(std::cout);
    std::cout << "\nGeneration is memory-bound (weights re-stream per "
                 "token); detection cuts\nthe K/V fetch traffic by the "
                 "retention ratio — Section 4.4's argument.\n";
    return 0;
}
