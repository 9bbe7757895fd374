/**
 * @file
 * Implementation of the System facade.
 */
#include "core/dota.hpp"

namespace dota {

namespace {

/** Attention-block energy (detection + attention + leakage share). */
double
attentionEnergyJ(const RunReport &r)
{
    const double dynamic =
        (r.per_layer.detection.energy_pj + r.per_layer.attention.energy_pj) *
        static_cast<double>(r.layers) * 1e-12;
    const double total_cycles =
        static_cast<double>(r.totalCycles());
    const double att_cycles = static_cast<double>(
        (r.per_layer.detection.cycles + r.per_layer.attention.cycles) *
        r.layers);
    const double leak_share =
        total_cycles > 0.0 ? r.leakage_j * att_cycles / total_cycles : 0.0;
    return dynamic + leak_share;
}

} // namespace

System::System(DeviceOptions opt) : opt_(std::move(opt)) {}

const Device &
System::device(const std::string &key) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = devices_.find(key);
    if (it == devices_.end())
        it = devices_.emplace(key, DeviceRegistry::create(key, opt_)).first;
    return *it->second;
}

const DotaAccelerator &
System::accelerator() const
{
    return dynamic_cast<const DotaDevice &>(device("dota-c"))
        .accelerator();
}

RunReport
System::run(BenchmarkId id, const std::string &device_key) const
{
    return device(device_key).simulate(benchmark(id));
}

RunReport
System::run(BenchmarkId id, DotaMode mode) const
{
    return run(id, dotaModeKey(mode));
}

System::Comparison
System::compare(BenchmarkId id) const
{
    const Benchmark &bench = benchmark(id);
    const RunReport gpu = run(id, "gpu-v100");
    const RunReport elsa = run(id, "elsa");
    const RunReport cons = run(id, "dota-c");
    const RunReport aggr = run(id, "dota-a");

    Comparison cmp;
    cmp.benchmark = bench.name;

    const double gpu_att_ms = gpu.attentionTimeMs();
    cmp.attention_speedup_elsa = gpu_att_ms / elsa.attentionTimeMs();
    cmp.attention_speedup_c = gpu_att_ms / cons.attentionTimeMs();
    cmp.attention_speedup_a = gpu_att_ms / aggr.attentionTimeMs();

    cmp.e2e_speedup_c = gpu.timeMs() / cons.timeMs();
    cmp.e2e_speedup_a = gpu.timeMs() / aggr.timeMs();
    // Amdahl upper bound: the accelerator at peak with free attention.
    cmp.e2e_upper_bound = gpu.timeMs() / cons.linearTimeMs();

    // The GPU report's attention energy is board power over the
    // attention phases' wall time, so one helper covers every device.
    const double gpu_att_j = attentionEnergyJ(gpu);
    cmp.energy_eff_elsa = gpu_att_j / attentionEnergyJ(elsa);
    cmp.energy_eff_c = gpu_att_j / attentionEnergyJ(cons);
    cmp.energy_eff_a = gpu_att_j / attentionEnergyJ(aggr);
    return cmp;
}

} // namespace dota
