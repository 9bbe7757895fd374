/**
 * @file
 * Device registry implementation and built-in registrations.
 */
#include "device/registry.hpp"

#include <functional>
#include <map>

#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "device/dota_device.hpp"
#include "device/elsa_device.hpp"
#include "device/gpu_device.hpp"

namespace dota {

namespace {

struct Entry
{
    std::string description;
    std::function<std::unique_ptr<Device>(const DeviceOptions &)> factory;
};

const std::map<std::string, Entry> &
table()
{
    static const std::map<std::string, Entry> entries = [] {
        std::map<std::string, Entry> t;
        auto dotaFactory = [](DotaMode mode) {
            return [mode](const DeviceOptions &opt) {
                return std::unique_ptr<Device>(
                    std::make_unique<DotaDevice>(mode, opt));
            };
        };
        t["dota-f"] = {"DOTA accelerator, full attention (retention "
                       "1.0, no detection)",
                       dotaFactory(DotaMode::Full)};
        t["dota-c"] = {"DOTA accelerator, conservative retention "
                       "(<0.5% accuracy loss)",
                       dotaFactory(DotaMode::Conservative)};
        t["dota-a"] = {"DOTA accelerator, aggressive retention "
                       "(<1.5% accuracy loss)",
                       dotaFactory(DotaMode::Aggressive)};
        t["elsa"] = {"ELSA (ISCA'21) sign-random-projection "
                     "accelerator, attention block only",
                     [](const DeviceOptions &opt) {
                         return std::unique_ptr<Device>(
                             std::make_unique<ElsaDevice>(opt));
                     }};
        t["gpu-v100"] = {"NVIDIA V100 GPU, dense attention (calibrated "
                         "roofline)",
                         [](const DeviceOptions &opt) {
                             return std::unique_ptr<Device>(
                                 std::make_unique<GpuDevice>(opt));
                         }};
        return t;
    }();
    return entries;
}

const Entry &
lookup(const std::string &key)
{
    const auto it = table().find(key);
    if (it == table().end())
        DOTA_FATAL("unknown device key '{}' (available: {})", key,
              join(DeviceRegistry::keys(), ", "));
    return it->second;
}

} // namespace

std::unique_ptr<Device>
DeviceRegistry::create(const std::string &key, const DeviceOptions &opt)
{
    return lookup(key).factory(opt);
}

bool
DeviceRegistry::contains(const std::string &key)
{
    return table().count(key) != 0;
}

std::vector<std::string>
DeviceRegistry::keys()
{
    std::vector<std::string> out;
    out.reserve(table().size());
    for (const auto &[key, entry] : table())
        out.push_back(key);
    return out; // std::map iterates sorted
}

std::string
DeviceRegistry::describe(const std::string &key)
{
    return lookup(key).description;
}

} // namespace dota
