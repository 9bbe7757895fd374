/**
 * @file
 * String-keyed factory registry for simulated devices.
 *
 * Built-in keys:
 *   dota-f    DOTA accelerator, full attention (no omission)
 *   dota-c    DOTA accelerator, conservative retention
 *   dota-a    DOTA accelerator, aggressive retention
 *   elsa      ELSA accelerator (attention block only)
 *   gpu-v100  dense V100 GPU roofline
 *
 * A new backend is one more entry in the table in registry.cpp; it is
 * then available to the System facade, the fleets and dota_cli without
 * further plumbing.
 */
#pragma once

#include <memory>
#include <vector>

#include "device/device.hpp"

namespace dota {

/** Factory registry; all members are static (one fixed table). */
class DeviceRegistry
{
  public:
    /** Instantiate the device registered under @p key; fatal() if
     * unknown. */
    static std::unique_ptr<Device>
    create(const std::string &key,
           const DeviceOptions &opt = DeviceOptions{});

    /** Whether @p key is registered. */
    static bool contains(const std::string &key);

    /** All registered keys, sorted. */
    static std::vector<std::string> keys();

    /** One-line description of the device behind @p key. */
    static std::string describe(const std::string &key);
};

} // namespace dota
