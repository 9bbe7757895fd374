/**
 * @file
 * Implementation of the training and evaluation loops.
 *
 * The batch loop is data-parallel over weight-synchronized replicas with
 * a determinism contract (see trainer.hpp): every sample's gradient is
 * computed from a zeroed accumulator and the per-sample gradients are
 * summed into the optimizer in batch order, so a step's numerics do not
 * depend on DOTA_THREADS.
 */
#include "workloads/trainer.hpp"

#include <memory>

#include "common/thread_pool.hpp"

namespace dota {

namespace {

/** Scale every accumulated gradient by 1/batch. */
void
scaleGrads(const std::vector<Parameter *> &params, double inv_batch)
{
    for (Parameter *p : params)
        for (size_t i = 0; i < p->grad.size(); ++i)
            p->grad.data()[i] =
                static_cast<float>(p->grad.data()[i] * inv_batch);
}

void
zeroGrads(const std::vector<Parameter *> &params)
{
    for (Parameter *p : params)
        p->zeroGrad();
}

/** Copy every gradient of @p params into @p out (one Matrix each). */
void
captureGrads(const std::vector<Parameter *> &params,
             std::vector<Matrix> &out)
{
    out.clear();
    out.reserve(params.size());
    for (Parameter *p : params)
        out.push_back(p->grad);
}

/** grad[i] += captured[i]: the fixed-order reduction step. */
void
accumulateGrads(const std::vector<Parameter *> &params,
                const std::vector<Matrix> &captured)
{
    for (size_t i = 0; i < params.size(); ++i) {
        float *dst = params[i]->grad.data();
        const float *src = captured[i].data();
        const size_t sz = captured[i].size();
        for (size_t e = 0; e < sz; ++e)
            dst[e] += src[e];
    }
}

/** A classifier sample's loss, its gradients left in @p m. */
double
trainLoss(TransformerClassifier &m, const Sample &s)
{
    const Matrix logits = m.forward(s.features);
    Matrix dlogits;
    const double loss = softmaxCrossEntropy(logits, {s.label}, dlogits);
    m.backward(dlogits);
    return loss;
}

/** An LM sequence's loss, its gradients left in @p m. */
double
trainLoss(CausalLM &m, const std::vector<int> &ids)
{
    return m.lmLoss(ids, /*train=*/true);
}

} // namespace

EvalResult
evaluate(const SyntheticTask &task,
         const std::function<Matrix(const Matrix &)> &forward,
         size_t samples, uint64_t seed)
{
    Rng eval_rng(seed);
    size_t hits = 0;
    double loss_sum = 0.0;
    for (size_t i = 0; i < samples; ++i) {
        const Sample s = task.sample(eval_rng);
        const Matrix logits = forward(s.features);
        Matrix dlogits;
        loss_sum += softmaxCrossEntropy(logits, {s.label}, dlogits);
        hits += rowArgmax(logits)[0] == s.label;
    }
    EvalResult res;
    res.metric = static_cast<double>(hits) / static_cast<double>(samples);
    res.loss = loss_sum / static_cast<double>(samples);
    return res;
}

EvalResult
evaluate(const SyntheticGrammar &grammar,
         const std::function<Matrix(const std::vector<int> &)> &forward,
         size_t samples, uint64_t seed)
{
    Rng eval_rng(seed);
    double loss_sum = 0.0;
    for (size_t i = 0; i < samples; ++i) {
        const std::vector<int> ids = grammar.sample(eval_rng);
        Matrix dlogits;
        loss_sum += softmaxCrossEntropy(forward(ids), nextTokenLabels(ids),
                                        dlogits);
    }
    EvalResult res;
    res.loss = loss_sum / static_cast<double>(samples);
    res.metric = perplexityFromLoss(res.loss);
    return res;
}

template <class Model, class Data>
Trainer<Model, Data>::Trainer(Model &model, const Data &data,
                              TrainConfig cfg)
    : model_(model), data_(data), cfg_(cfg)
{
    model_.collectParams(params_);
    model_param_count_ = params_.size();
}

template <class Model, class Data>
void
Trainer<Model, Data>::addExtraParams(const std::vector<Parameter *> &params)
{
    params_.insert(params_.end(), params.begin(), params.end());
}

template <class Model, class Data>
double
Trainer<Model, Data>::train()
{
    // Backward needs the S/A only the dense path caches, also when an
    // inference-only hook is installed.
    model_.setForceDense(true);
    Adam opt(params_, cfg_.adam);
    Rng data_rng(cfg_.data_seed);
    loss_history_.clear();
    StepGuard guard(cfg_.guard);
    CheckpointManager ckpt(cfg_.checkpoint);
    // Resume restores params, Adam moments, the data-stream RNG, the
    // loss history and the guard counters — everything the remaining
    // steps depend on, so the continued trajectory is bit-identical to
    // an uninterrupted run.
    const size_t start_step =
        ckpt.resume(params_, opt, data_rng, loss_history_, guard);
    loss_history_.reserve(cfg_.steps);

    // Replicas carry neither the attention hook nor jointly-trained extra
    // parameters, so those configurations (the adaptation phase) run the
    // batch serially on the primary model; the fixed-order reduction below
    // is shared, keeping both paths thread-count independent.
    const bool replicable = params_.size() == model_param_count_ &&
                            !model_.hasHook() && cfg_.batch > 1;
    const size_t slots =
        replicable ? ThreadPool::globalConcurrency() : 1;
    std::vector<std::unique_ptr<Model>> replicas;
    std::vector<std::vector<Parameter *>> replica_params;
    for (size_t s = 1; s < slots; ++s) {
        replicas.push_back(std::make_unique<Model>(model_.config()));
        replicas.back()->setForceDense(true);
        replica_params.emplace_back();
        replicas.back()->collectParams(replica_params.back());
    }

    double last_loss = loss_history_.empty() ? 0.0 : loss_history_.back();
    std::vector<decltype(data_.sample(data_rng))> batch(cfg_.batch);
    std::vector<std::vector<Matrix>> sample_grads(cfg_.batch);
    std::vector<double> sample_loss(cfg_.batch, 0.0);
    for (size_t step = start_step; step < cfg_.steps; ++step) {
        // Draw the whole batch serially: the data stream is identical to
        // the historical one for every thread count.
        for (size_t b = 0; b < cfg_.batch; ++b)
            batch[b] = data_.sample(data_rng);
        for (auto &rep : replicas)
            copyParams(model_, *rep);
        auto runRange = [&](size_t b0, size_t b1) {
            const int slot = ThreadPool::slot();
            Model *m = slot == 0 ? &model_ : replicas[slot - 1].get();
            const std::vector<Parameter *> &ps =
                slot == 0 ? params_ : replica_params[slot - 1];
            for (size_t b = b0; b < b1; ++b) {
                zeroGrads(ps);
                sample_loss[b] = trainLoss(*m, batch[b]);
                captureGrads(ps, sample_grads[b]);
            }
        };
        if (slots == 1)
            runRange(0, cfg_.batch);
        else
            parallelFor(0, cfg_.batch, 1, runRange);
        // Fixed-order reduction: per-sample gradients summed in batch
        // order regardless of which thread produced them.
        opt.zeroGrad();
        double loss_sum = 0.0;
        for (size_t b = 0; b < cfg_.batch; ++b) {
            loss_sum += sample_loss[b];
            accumulateGrads(params_, sample_grads[b]);
        }
        scaleGrads(params_, 1.0 / static_cast<double>(cfg_.batch));
        if (grad_cb_)
            grad_cb_(step, params_);
        last_loss = loss_sum / static_cast<double>(cfg_.batch);
        // Guard rail: a non-finite loss or gradient withholds the
        // update (params and moments keep pre-step values).
        if (!guard.shouldSkip(last_loss, params_)) {
            opt.step();
            guard.afterStep(opt);
        }
        loss_history_.push_back(last_loss);
        ckpt.onStepComplete(step + 1, params_, opt, data_rng,
                            loss_history_, guard);
        if (cfg_.halt_after_step > 0 && step + 1 >= cfg_.halt_after_step)
            break; // simulated preemption (tests)
    }
    guard_stats_ = guard.stats();
    model_.setForceDense(false);
    return last_loss;
}

template <class Model, class Data>
EvalResult
Trainer<Model, Data>::evaluate(size_t samples, uint64_t seed) const
{
    // The explicit return type keeps overload resolution from
    // instantiating the body for the other model kind's input.
    return dota::evaluate(
        data_,
        [this](const auto &input) -> Matrix { return model_.forward(input); },
        samples, seed);
}

template class Trainer<TransformerClassifier, SyntheticTask>;
template class Trainer<CausalLM, SyntheticGrammar>;

} // namespace dota
