/**
 * @file
 * Device adapter for the V100 roofline model (key "gpu-v100").
 */
#pragma once

#include "device/device.hpp"

namespace dota {

/** Dense-attention GPU baseline. */
class GpuDevice : public Device
{
  public:
    explicit GpuDevice(const DeviceOptions &opt) : cfg_(opt.gpu) {}

    RunReport
    simulate(const Benchmark &bench) const override
    {
        return simulateGpu(bench, cfg_);
    }

    RunReport
    simulateGeneration(const Benchmark &bench) const override
    {
        return simulateGpuGeneration(bench, cfg_);
    }

    std::string name() const override { return "GPU-V100"; }

  private:
    GpuConfig cfg_;
};

} // namespace dota
