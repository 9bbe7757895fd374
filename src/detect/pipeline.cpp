/**
 * @file
 * Implementation of the training recipes, one body for both model kinds.
 */
#include "detect/pipeline.hpp"

#include <type_traits>

namespace dota {

namespace {

/** Adam over detector parameters only. */
Adam
detectorOptimizer(DotaDetector &detector, double lr)
{
    std::vector<Parameter *> params;
    detector.collectParams(params);
    AdamConfig cfg;
    cfg.lr = lr;
    return Adam(std::move(params), cfg);
}

/** What a model reads of a drawn sample: features, or the token ids. */
const Matrix &
modelInput(const Sample &s)
{
    return s.features;
}

const std::vector<int> &
modelInput(const std::vector<int> &ids)
{
    return ids;
}

} // namespace

template <class Model, class Data>
double
warmupDetector(Model &model, const Data &data, DotaDetector &detector,
               size_t steps, size_t batch, double lr, uint64_t seed)
{
    const bool saved_apply = detector.config().apply_mask;
    const bool saved_train = detector.config().train;
    detector.config().apply_mask = false;
    detector.config().train = true;
    model.setHook(&detector);

    Adam opt = detectorOptimizer(detector, lr);
    Rng rng(seed);
    double last = 0.0;
    for (size_t step = 0; step < steps; ++step) {
        opt.zeroGrad();
        detector.consumeMseLoss();
        for (size_t b = 0; b < batch; ++b)
            model.forward(modelInput(data.sample(rng))); // grads at forward
        opt.step();
        last = detector.consumeMseLoss();
    }

    detector.config().apply_mask = saved_apply;
    detector.config().train = saved_train;
    model.setHook(nullptr);
    return last;
}

float
calibrateThreshold(TransformerClassifier &model, const SyntheticTask &task,
                   DotaDetector &detector, double retention,
                   size_t samples, uint64_t seed)
{
    const bool saved_apply = detector.config().apply_mask;
    const bool saved_train = detector.config().train;
    detector.config().apply_mask = false;
    detector.config().train = false;
    model.setHook(&detector);

    // Pool estimated scores across probe forwards, layers and heads.
    Rng rng(seed);
    std::vector<float> pool;
    const TransformerConfig &cfg = model.config();
    for (size_t s = 0; s < samples; ++s) {
        model.forward(task.sample(rng).features);
        for (size_t l = 0; l < cfg.layers; ++l) {
            for (size_t h = 0; h < cfg.heads; ++h) {
                const Matrix &est = detector.lastEstimate(l, h);
                pool.insert(pool.end(), est.data(),
                            est.data() + est.size());
            }
        }
    }
    model.setHook(nullptr);
    DOTA_ASSERT(!pool.empty(), "no estimates pooled for calibration");

    const size_t pooled = pool.size();
    Matrix flat(1, pooled, std::move(pool));
    const float threshold = thresholdForRetention(flat, retention);

    detector.config().apply_mask = saved_apply;
    detector.config().train = saved_train;
    detector.config().use_threshold = true;
    detector.config().threshold = threshold;
    return threshold;
}

template <class Model, class Data>
double
adaptJointly(Model &model, const Data &data, DotaDetector &detector,
             const TrainConfig &cfg)
{
    detector.config().apply_mask = true;
    detector.config().train = true;
    model.setHook(&detector);
    Trainer<Model, Data> joint(model, data, cfg);
    std::vector<Parameter *> det_params;
    detector.collectParams(det_params);
    joint.addExtraParams(det_params);
    joint.train();
    const double mse = detector.consumeMseLoss();

    // Inference configuration: mask on, training off, hook installed.
    // With training off the detector reports wantsFullScores() == false,
    // so later forwards run the sparse attention kernels — scores are
    // computed only at detector-kept coordinates.
    detector.config().train = false;
    return mse;
}

template <class Model, class Data>
double
warmupAndAdapt(Model &model, const Data &data, DotaDetector &detector,
               const PipelineConfig &cfg)
{
    warmupDetector(model, data, detector, cfg.warmup_steps,
                   cfg.warmup_batch, cfg.warmup_lr);
    return adaptJointly(model, data, detector, cfg.adapt);
}

template <class Model, class Data>
PipelineResult
runPipeline(Model &model, const Data &data, DotaDetector &detector,
            const PipelineConfig &cfg)
{
    const size_t eval_n = std::is_same_v<Model, CausalLM> ? 50 : 200;
    PipelineResult res;
    Trainer<Model, Data> pre(model, data, cfg.pretrain);
    pre.train();
    res.dense = pre.evaluate(eval_n);
    res.detector_mse = warmupAndAdapt(model, data, detector, cfg);
    res.sparse = pre.evaluate(eval_n); // same model, now omitting
    return res;
}

#define DOTA_PIPELINE_KIND(Model, Data)                                      \
    template double warmupDetector(Model &, const Data &, DotaDetector &,  \
                                   size_t, size_t, double, uint64_t);      \
    template double adaptJointly(Model &, const Data &, DotaDetector &,    \
                                 const TrainConfig &);                     \
    template double warmupAndAdapt(Model &, const Data &, DotaDetector &,  \
                                   const PipelineConfig &);                \
    template PipelineResult runPipeline(Model &, const Data &,             \
                                        DotaDetector &,                    \
                                        const PipelineConfig &);
DOTA_PIPELINE_KIND(TransformerClassifier, SyntheticTask)
DOTA_PIPELINE_KIND(CausalLM, SyntheticGrammar)
#undef DOTA_PIPELINE_KIND

} // namespace dota
