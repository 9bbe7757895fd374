/**
 * @file
 * Device adapter for the DOTA accelerator (keys "dota-f" / "dota-c" /
 * "dota-a", one per operating mode of Section 5.3).
 */
#pragma once

#include "device/device.hpp"

namespace dota {

/** Registry key for a DOTA operating mode ("dota-f" / "dota-c" / ...). */
std::string dotaModeKey(DotaMode mode);

/** The DOTA accelerator in one fixed operating mode. */
class DotaDevice : public Device
{
  public:
    DotaDevice(DotaMode mode, const DeviceOptions &opt);

    RunReport simulate(const Benchmark &bench) const override;
    RunReport simulateGeneration(const Benchmark &bench) const override;
    std::string name() const override { return dotaModeName(mode_); }
    double peakTopS() const override { return accel_.hw().peakTops(); }
    std::unique_ptr<Device> clone() const override;

    DotaMode mode() const { return mode_; }
    const DotaAccelerator &accelerator() const { return accel_; }

  private:
    DotaMode mode_;
    SimOptions sim_;
    DotaAccelerator accel_;
};

} // namespace dota
