/**
 * @file
 * Implementation of the scale-out fleet simulator.
 */
#include "device/fleet.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "device/dota_device.hpp"

namespace dota {

FleetSimulator::FleetSimulator(FleetConfig cfg, const Benchmark &bench,
                               SimOptions opt)
    : costs_(bench)
{
    std::vector<DeviceSpec> specs = std::move(cfg.devices);
    if (specs.empty()) {
        // Legacy homogeneous path: N identical DOTA accelerators built
        // from the scalar FleetConfig fields and the SimOptions.
        DeviceSpec spec;
        spec.key = dotaModeKey(opt.mode);
        spec.count = cfg.accelerators;
        spec.opts.hw = cfg.accelerator;
        spec.opts.energy = cfg.energy;
        spec.opts.sim = opt;
        specs.push_back(std::move(spec));
    }
    for (const DeviceSpec &spec : specs) {
        DOTA_ASSERT(spec.count >= 1, "device spec needs count >= 1");
        DOTA_ASSERT(spec.speed > 0.0, "device speed must be positive");
        const size_t group =
            costs_.addGroup(DeviceRegistry::create(spec.key, spec.opts));
        group_of_.resize(group_of_.size() + spec.count, group);
        speed_.resize(speed_.size() + spec.count, spec.speed);
    }
    DOTA_ASSERT(!group_of_.empty(), "fleet needs at least one "
                                    "accelerator");
}

FleetSimulator::FleetSimulator(
    std::vector<std::unique_ptr<Device>> devices, const Benchmark &bench)
    : costs_(bench)
{
    DOTA_ASSERT(!devices.empty(), "fleet needs at least one "
                                  "accelerator");
    for (auto &dev : devices)
        group_of_.push_back(costs_.addGroup(std::move(dev)));
    speed_.assign(group_of_.size(), 1.0);
}

double
FleetSimulator::sequenceLatencyMs(size_t seq_len, size_t accel) const
{
    return costs_.cost(group_of_[accel], 0, seq_len).ms / speed_[accel];
}

double
FleetSimulator::sequenceEnergyJ(size_t seq_len, size_t accel) const
{
    return costs_.cost(group_of_[accel], 0, seq_len).energy_j;
}

void
FleetSimulator::warmLatencyCache(
    const std::vector<size_t> &seq_lens) const
{
    costs_.warm(seq_lens);
}

FleetReport
FleetSimulator::run(const std::vector<size_t> &seq_lens) const
{
    const size_t n_accel = size();
    FleetReport report;
    report.accel_busy_ms.assign(n_accel, 0.0);
    report.accel_device.reserve(n_accel);
    for (size_t a = 0; a < n_accel; ++a)
        report.accel_device.push_back(device(a).name());
    if (seq_lens.empty())
        return report;

    warmLatencyCache(seq_lens);

    // Per-job service time on every accelerator (speed-aware), plus the
    // unscaled energy per cache group.
    const size_t jobs = seq_lens.size();
    std::vector<std::vector<double>> service(jobs);
    std::vector<double> worst(jobs, 0.0);
    for (size_t j = 0; j < jobs; ++j) {
        service[j].reserve(n_accel);
        for (size_t a = 0; a < n_accel; ++a) {
            const double ms = sequenceLatencyMs(seq_lens[j], a);
            service[j].push_back(ms);
            worst[j] = std::max(worst[j], ms);
        }
    }

    // LPT order generalized to heterogeneous fleets: largest worst-case
    // service first (on a homogeneous fleet this is exactly classic
    // LPT); ties broken by length then index for determinism.
    std::vector<size_t> order(jobs);
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (worst[a] != worst[b])
            return worst[a] > worst[b];
        if (seq_lens[a] != seq_lens[b])
            return seq_lens[a] > seq_lens[b];
        return a < b;
    });

    // Greedy earliest-completion-time assignment. The running busy
    // totals drive every target choice, so this stays sequential. On
    // identical devices this picks the least-busy accelerator, i.e. the
    // classic earliest-available rule.
    std::vector<std::vector<double>> assigned(n_accel);
    std::vector<double> busy(n_accel, 0.0);
    for (size_t idx : order) {
        size_t target = 0;
        double best = busy[0] + service[idx][0];
        for (size_t a = 1; a < n_accel; ++a) {
            const double done = busy[a] + service[idx][a];
            if (done < best) {
                best = done;
                target = a;
            }
        }
        busy[target] += service[idx][target];
        assigned[target].push_back(service[idx][target]);
        report.total_work_ms += service[idx][target];
        report.total_energy_j +=
            sequenceEnergyJ(seq_lens[idx], target);
    }

    // Completion timelines, merged in a fixed accelerator order.
    double latency_sum = 0.0;
    for (size_t a = 0; a < n_accel; ++a) {
        double done = 0.0;
        for (double svc : assigned[a]) {
            done += svc;
            latency_sum += done;
            report.latency.sample(done);
            report.max_latency_ms = std::max(report.max_latency_ms, done);
        }
        report.accel_busy_ms[a] = done;
    }
    report.makespan_ms = *std::max_element(report.accel_busy_ms.begin(),
                                           report.accel_busy_ms.end());
    report.mean_latency_ms =
        latency_sum / static_cast<double>(jobs);
    // A zero makespan (every job had zero service time) must not turn
    // the rate metrics into inf/NaN.
    if (report.makespan_ms > 0.0) {
        report.utilization =
            report.total_work_ms /
            (report.makespan_ms * static_cast<double>(n_accel));
        report.throughput_seq_s =
            static_cast<double>(jobs) / (report.makespan_ms * 1e-3);
        report.energy_per_seq_j =
            report.total_energy_j / static_cast<double>(jobs);
    }
    return report;
}

} // namespace dota
