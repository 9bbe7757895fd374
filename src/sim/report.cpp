/**
 * @file
 * Implementation of the report arithmetic.
 */
#include "sim/report.hpp"

namespace dota {

PhaseCost &
PhaseCost::operator+=(const PhaseCost &o)
{
    cycles += o.cycles;
    macs += o.macs;
    sram_bytes += o.sram_bytes;
    dram_bytes += o.dram_bytes;
    energy_pj += o.energy_pj;
    return *this;
}

uint64_t
LayerReport::totalCycles() const
{
    return linear.cycles + detection.cycles + attention.cycles;
}

double
LayerReport::totalEnergyPj() const
{
    return linear.energy_pj + detection.energy_pj + attention.energy_pj;
}

uint64_t
RunReport::totalCycles() const
{
    return per_layer.totalCycles() * layers;
}

double
RunReport::timeMs() const
{
    return static_cast<double>(totalCycles()) / (freq_ghz * 1e6);
}

double
RunReport::attentionTimeMs() const
{
    return static_cast<double>(
               (per_layer.attention.cycles + per_layer.detection.cycles) *
               layers) /
           (freq_ghz * 1e6);
}

double
RunReport::detectionTimeMs() const
{
    return static_cast<double>(per_layer.detection.cycles * layers) /
           (freq_ghz * 1e6);
}

double
RunReport::linearTimeMs() const
{
    return static_cast<double>(per_layer.linear.cycles * layers) /
           (freq_ghz * 1e6);
}

double
RunReport::totalEnergyJ() const
{
    return per_layer.totalEnergyPj() * static_cast<double>(layers) * 1e-12 +
           leakage_j;
}

} // namespace dota
