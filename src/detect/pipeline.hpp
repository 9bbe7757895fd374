/**
 * @file
 * End-to-end training recipes for DOTA models (the paper's software
 * experiment methodology, Section 5.1): pre-train a dense baseline, warm
 * up the detector against the frozen model's attention scores, then
 * jointly optimize model + detector with omission enabled ("model
 * adaptation", Section 3.2).
 */
#pragma once

#include <memory>

#include "detect/detector.hpp"
#include "workloads/trainer.hpp"

namespace dota {

/** Knobs of the three-phase recipe. */
struct PipelineConfig
{
    TrainConfig pretrain;       ///< dense pre-training
    size_t warmup_steps = 60;   ///< detector-only regression steps
    size_t warmup_batch = 4;
    double warmup_lr = 5e-3;
    TrainConfig adapt;          ///< joint adaptation (mask enabled)

    PipelineConfig()
    {
        pretrain.steps = 150;
        adapt.steps = 150;
        // A gentler rate keeps the adaptation stable while masks evolve.
        adapt.adam.lr = 3e-4;
    }
};

/** Outcome of the full recipe. */
struct PipelineResult
{
    EvalResult dense;   ///< dense model after pre-training
    EvalResult sparse;  ///< adapted model with omission enabled
    double detector_mse = 0.0; ///< estimation loss at the end of adaptation
};

// The recipe functions take either model kind with its data, as the
// Trainer does: a TransformerClassifier on a SyntheticTask, or a CausalLM
// on a SyntheticGrammar.

/**
 * Phase 2: train only the detector to regress the frozen model's
 * attention scores (masks disabled). Returns the final mean estimation
 * loss.
 */
template <class Model, class Data>
double warmupDetector(Model &model, const Data &data,
                      DotaDetector &detector, size_t steps, size_t batch,
                      double lr, uint64_t seed = 777);

/**
 * Phase 3: jointly train model + detector with omission enabled. On
 * return the detector stays installed in inference configuration (mask
 * on, training off). Returns the mean estimation loss over the
 * adaptation.
 */
template <class Model, class Data>
double adaptJointly(Model &model, const Data &data, DotaDetector &detector,
                    const TrainConfig &cfg);

/** Phases 2 and 3 on a dense-trained model (see adaptJointly). */
template <class Model, class Data>
double warmupAndAdapt(Model &model, const Data &data,
                      DotaDetector &detector, const PipelineConfig &cfg);

/**
 * Run the full three-phase recipe. EvalResult.metric is accuracy over
 * 200 held-out samples (classifier) or perplexity over 50 (LM). On
 * return the model has the detector installed with omission enabled and
 * training disabled (inference configuration).
 */
template <class Model, class Data>
PipelineResult runPipeline(Model &model, const Data &data,
                           DotaDetector &detector,
                           const PipelineConfig &cfg);

/**
 * Calibrate the hardware comparator's preset threshold (Section 3.1:
 * "tuning from the validation set"): run @p samples probe forwards with
 * masks disabled and pick the estimated-score threshold whose density
 * matches @p retention across all layers/heads. The detector is left in
 * threshold mode with the calibrated value installed.
 */
float calibrateThreshold(TransformerClassifier &model,
                         const SyntheticTask &task, DotaDetector &detector,
                         double retention, size_t samples = 4,
                         uint64_t seed = 555);

} // namespace dota
