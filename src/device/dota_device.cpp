/**
 * @file
 * DOTA accelerator Device adapter.
 */
#include "device/dota_device.hpp"

#include "common/logging.hpp"

namespace dota {

std::string
dotaModeKey(DotaMode mode)
{
    switch (mode) {
      case DotaMode::Full:
        return "dota-f";
      case DotaMode::Conservative:
        return "dota-c";
      case DotaMode::Aggressive:
        return "dota-a";
    }
    DOTA_PANIC("unknown DotaMode {}", static_cast<int>(mode));
}

DotaDevice::DotaDevice(DotaMode mode, const DeviceOptions &opt)
    : mode_(mode), sim_(opt.sim), accel_(opt.hw, opt.energy)
{
    sim_.mode = mode;
}

RunReport
DotaDevice::simulate(const Benchmark &bench) const
{
    return accel_.simulate(bench, sim_);
}

RunReport
DotaDevice::simulateGeneration(const Benchmark &bench) const
{
    return accel_.simulateGeneration(bench, sim_);
}

} // namespace dota
