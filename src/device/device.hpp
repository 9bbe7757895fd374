/**
 * @file
 * The polymorphic device abstraction the serving layers program against.
 *
 * A Device is anything that can simulate a paper benchmark and emit a
 * RunReport: the DOTA accelerator in any of its three operating modes,
 * the reconstructed ELSA accelerator, the V100 roofline model, and any
 * future backend. Devices are created by string key through
 * DeviceRegistry (registry.hpp), so fleets, CLIs and comparison tables
 * can mix backends without compile-time knowledge of them; a new device
 * model is its adapter plus one entry in the registry.cpp table (see
 * DESIGN.md §8).
 */
#pragma once

#include <string>

#include "baselines/elsa_sim.hpp"
#include "baselines/gpu_model.hpp"
#include "sim/accelerator.hpp"
#include "workloads/benchmark.hpp"

namespace dota {

/**
 * Options consumed by the device factories. Each backend reads the
 * slice it understands and ignores the rest, so one options object can
 * configure a whole heterogeneous fleet.
 */
struct DeviceOptions
{
    /**
     * Fabric for the DOTA/ELSA accelerators. Defaults to the
     * GPU-comparable 12 TOPS scale of Section 5.1, the fabric every GPU
     * comparison uses; table2() gives the 2 TOPS Table 2 part.
     */
    HwConfig hw = HwConfig::dotaScaledForGpu();
    EnergyModel energy = EnergyModel::tsmc22();
    /** DOTA simulation knobs. `sim.mode` is overridden by the key. */
    SimOptions sim;
    GpuConfig gpu = GpuConfig::v100();
    ElsaConfig elsa = ElsaConfig::iscaDefault();

    /** Options with the unscaled Table 2 (2 TOPS) fabric. */
    static DeviceOptions
    table2()
    {
        DeviceOptions opt;
        opt.hw = HwConfig::dota();
        return opt;
    }
};

/** Abstract simulated device. */
class Device
{
  public:
    virtual ~Device() = default;

    /** Simulate single-pass inference of @p bench. */
    virtual RunReport simulate(const Benchmark &bench) const = 0;

    /**
     * Simulate autoregressive generation of a causal benchmark.
     * Backends without a generation path fatal() (the default).
     */
    virtual RunReport simulateGeneration(const Benchmark &bench) const;

    /** Report label, e.g. "DOTA-C" / "ELSA" / "GPU-V100". */
    virtual std::string name() const = 0;
};

} // namespace dota
