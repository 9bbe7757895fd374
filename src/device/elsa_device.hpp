/**
 * @file
 * Device adapter for the reconstructed ELSA accelerator (key "elsa").
 */
#pragma once

#include "device/device.hpp"

namespace dota {

/** ELSA (Ham et al., ISCA'21), attention block only. */
class ElsaDevice : public Device
{
  public:
    explicit ElsaDevice(const DeviceOptions &opt)
        : accel_(opt.hw, opt.energy, opt.elsa)
    {}

    RunReport
    simulate(const Benchmark &bench) const override
    {
        return accel_.simulate(bench);
    }

    // No simulateGeneration override: ELSA has no end-to-end execution
    // path (Section 5.3), so the base-class fatal() is the right answer.

    std::string name() const override { return "ELSA"; }

  private:
    ElsaAccelerator accel_;
};

} // namespace dota
