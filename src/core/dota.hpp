/**
 * @file
 * Public API of the DOTA library.
 *
 * Umbrella header plus the System facade: configure a hardware fabric
 * once, then run any paper benchmark on any registered device — the
 * DOTA accelerator (F/C/A), the GPU baseline, the reconstructed ELSA
 * accelerator, or any backend added through DeviceRegistry — and pull
 * the paper's comparison metrics (attention/end-to-end speedups,
 * energy-efficiency ratios, latency breakdowns). Every device emits the
 * same RunReport type.
 *
 * Quick start (see examples/quickstart.cpp):
 *
 *   dota::System system;                       // 12 TOPS fabric
 *   auto cmp = system.compare(dota::BenchmarkId::Text);
 *   std::cout << cmp.attention_speedup_c << "x attention speedup\n";
 *
 *   auto gpu = system.run(dota::BenchmarkId::Text, "gpu-v100");
 *   auto dota = system.run(dota::BenchmarkId::Text, "dota-c");
 *   // gpu.timeMs() / dota.timeMs(), same report type everywhere
 *
 * The algorithmic side (training a Detector jointly with a model) lives
 * in detect/detector.hpp + detect/pipeline.hpp and is exercised by the
 * accuracy benches and examples.
 */
#pragma once

#include <map>
#include <mutex>

#include "baselines/elsa_sim.hpp"
#include "baselines/gpu_model.hpp"
#include "common/table.hpp"
#include "detect/detector.hpp"
#include "detect/a3_detector.hpp"
#include "detect/elsa_detector.hpp"
#include "detect/metrics.hpp"
#include "detect/oracle_detector.hpp"
#include "detect/static_pattern.hpp"
#include "detect/token_pruning.hpp"
#include "detect/pipeline.hpp"
#include "device/dota_device.hpp"
#include "device/elsa_device.hpp"
#include "device/fleet.hpp"
#include "device/gpu_device.hpp"
#include "device/registry.hpp"
#include "nn/attention_backend.hpp"
#include "nn/decode.hpp"
#include "nn/int8_infer.hpp"
#include "nn/serialize.hpp"
#include "tensor/int8_gemm.hpp"
#include "tensor/int_softmax.hpp"
#include "sched/dataflow.hpp"
#include "serve/dispatcher.hpp"
#include "serve/engine.hpp"
#include "serve/fault.hpp"
#include "serve/kv_cache.hpp"
#include "serve/report.hpp"
#include "serve/simulator.hpp"
#include "serve/trace.hpp"
#include "sim/accelerator.hpp"
#include "sim/pe_model.hpp"
#include "sim/trace.hpp"
#include "tensor/linalg.hpp"
#include "workloads/benchmark.hpp"
#include "workloads/long_retrieval.hpp"
#include "workloads/mask_synth.hpp"
#include "workloads/synthetic_task.hpp"
#include "workloads/trainer.hpp"

namespace dota {

/** Facade over the registered simulated devices. */
class System
{
  public:
    /**
     * Every device is built from @p opt; the default is the 12 TOPS
     * fabric of Section 5.1, DeviceOptions::table2() the Table 2 part.
     */
    explicit System(DeviceOptions opt = DeviceOptions{});

    /** Run @p id on the device registered under @p device_key. */
    RunReport run(BenchmarkId id, const std::string &device_key) const;

    /** Run @p id on the DOTA accelerator in @p mode. */
    RunReport run(BenchmarkId id, DotaMode mode) const;

    /** The paper's headline comparison numbers for one benchmark. */
    struct Comparison
    {
        std::string benchmark;
        // Figure 12(a): attention-block speedup over the GPU.
        double attention_speedup_elsa = 0.0;
        double attention_speedup_c = 0.0;
        double attention_speedup_a = 0.0;
        // Figure 12(b): end-to-end speedup over the GPU + upper bound.
        double e2e_speedup_c = 0.0;
        double e2e_speedup_a = 0.0;
        double e2e_upper_bound = 0.0;
        // Figure 13: attention energy-efficiency over the GPU.
        double energy_eff_elsa = 0.0;
        double energy_eff_c = 0.0;
        double energy_eff_a = 0.0;
    };

    Comparison compare(BenchmarkId id) const;

    /** The device behind @p key, configured with this System's options
     * (created on first use, then cached). */
    const Device &device(const std::string &key) const;

    /** The DOTA-C accelerator model. */
    const DotaAccelerator &accelerator() const;

  private:
    DeviceOptions opt_;
    mutable std::mutex mu_;
    mutable std::map<std::string, std::unique_ptr<Device>> devices_;
};

} // namespace dota
