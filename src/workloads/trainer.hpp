/**
 * @file
 * Training and evaluation loops for the synthetic-task models.
 *
 * One Trainer loop serves both model kinds and both phases of the
 * paper's recipe: pre-train a dense model, then "model adaptation" —
 * continue training with the detector hook installed so the model adapts
 * to sparse attention while the detector's parameters (passed in as
 * extra parameters) are jointly optimized (Section 3.2).
 *
 * Batch execution is parallel (common/thread_pool.hpp, DOTA_THREADS):
 * samples are drawn serially from the data stream, forward/backward runs
 * on weight-synchronized model replicas (one per pool slot), and the
 * per-sample gradients are reduced into the optimizer in **fixed batch
 * order**. Training is therefore bit-identical run-to-run for a given
 * seed at every thread count. Models with an installed attention hook or
 * jointly-trained extra parameters are not replicable and keep today's
 * serial batch loop (with the same fixed-order reduction, so their
 * numerics are thread-count independent too).
 *
 * Crash safety (src/train/): with TrainConfig::checkpoint configured the
 * loop periodically writes atomic, checksummed full-state checkpoints
 * (params + Adam moments + data-RNG + loss history + guard counters) and
 * can resume from the newest verifiable one; killing the process at any
 * step and resuming reproduces the uninterrupted trajectory bit-for-bit
 * at any thread count. TrainConfig::guard adds numerical guard rails:
 * non-finite loss/gradient steps are counted and skipped (the optimizer
 * update is withheld) instead of poisoning the weights.
 */
#pragma once

#include <functional>

#include "nn/transformer.hpp"
#include "train/checkpoint.hpp"
#include "train/guardrails.hpp"
#include "workloads/synthetic_task.hpp"

namespace dota {

/** Training-loop configuration. */
struct TrainConfig
{
    size_t steps = 300;        ///< optimizer steps
    size_t batch = 8;          ///< sequences per step (grad accumulation)
    uint64_t data_seed = 123;  ///< training-stream seed
    AdamConfig adam;

    CheckpointConfig checkpoint; ///< crash-safe checkpointing policy
    GuardRailConfig guard;       ///< numerical guard rails

    /**
     * Simulated preemption for tests: when > 0, train() returns after
     * this many steps have *completed* (checkpoints already on disk
     * stay), as if the process had been killed between steps.
     */
    size_t halt_after_step = 0;
};

/** Evaluation outcome. */
struct EvalResult
{
    double metric = 0.0; ///< accuracy (classifier) or perplexity (LM)
    double loss = 0.0;   ///< mean cross-entropy
};

/** Seed of the held-out evaluation stream (same seed -> same set). */
inline constexpr uint64_t kEvalSeed = 4242;

/**
 * Score @p forward on @p samples held-out task samples: argmax accuracy
 * and mean cross-entropy. Trainer::evaluate passes the model's forward;
 * the int8 series passes int8Forward, so both score the same samples.
 */
EvalResult evaluate(const SyntheticTask &task,
                    const std::function<Matrix(const Matrix &)> &forward,
                    size_t samples, uint64_t seed = kEvalSeed);

/** LM counterpart: perplexity and mean next-token cross-entropy. */
EvalResult
evaluate(const SyntheticGrammar &grammar,
         const std::function<Matrix(const std::vector<int> &)> &forward,
         size_t samples, uint64_t seed = kEvalSeed);

/**
 * The training loop of one model kind on its data: a
 * TransformerClassifier on a SyntheticTask (ClassifierTrainer) or a
 * CausalLM on a SyntheticGrammar (LMTrainer). Only drawing a sample,
 * its loss and the eval metric differ between the two.
 */
template <class Model, class Data>
class Trainer
{
  public:
    Trainer(Model &model, const Data &data, TrainConfig cfg);

    /**
     * Jointly optimize additional parameters (e.g. the Detector's) with
     * the model. Must be called before train().
     */
    void addExtraParams(const std::vector<Parameter *> &params);

    /**
     * Test hook: called after the fixed-order gradient reduction and
     * before the guard-rail check / optimizer update. Used to inject
     * non-finite gradients at chosen steps.
     */
    void setGradCallback(
        std::function<void(size_t, const std::vector<Parameter *> &)> cb)
    {
        grad_cb_ = std::move(cb);
    }

    /**
     * Run the configured number of steps; returns final mean loss.
     * Every training forward takes the dense attention path (backward
     * needs its S/A), whatever hook is installed; setForceDense(false)
     * is applied on return.
     */
    double train();

    /** Mean loss of every step of the most recent train() call. */
    const std::vector<double> &lossHistory() const { return loss_history_; }

    /** Guard-rail counters of the most recent train() call. */
    const GuardRailStats &guardStats() const { return guard_stats_; }

    /** Held-out evaluation of the model's own forward (see evaluate). */
    EvalResult evaluate(size_t samples, uint64_t seed = kEvalSeed) const;

  private:
    Model &model_;
    const Data &data_;
    TrainConfig cfg_;
    std::vector<Parameter *> params_;
    size_t model_param_count_ = 0; ///< params_ prefix owned by the model
    std::function<void(size_t, const std::vector<Parameter *> &)> grad_cb_;
    std::vector<double> loss_history_;
    GuardRailStats guard_stats_;
};

using ClassifierTrainer = Trainer<TransformerClassifier, SyntheticTask>;
using LMTrainer = Trainer<CausalLM, SyntheticGrammar>;

} // namespace dota
