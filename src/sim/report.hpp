/**
 * @file
 * Performance/energy reports produced by the simulators.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dota {

/** Cost of one pipeline phase of one layer. */
struct PhaseCost
{
    std::string name;
    uint64_t cycles = 0;
    uint64_t macs = 0;        ///< real MACs retired
    uint64_t sram_bytes = 0;  ///< on-chip traffic
    uint64_t dram_bytes = 0;  ///< off-chip traffic
    double energy_pj = 0.0;   ///< dynamic energy

    PhaseCost &operator+=(const PhaseCost &o);
};

/** Costs of one transformer layer, split as in Figure 12(c). */
struct LayerReport
{
    PhaseCost linear;    ///< QKV + output projection + FFN FCs
    PhaseCost detection; ///< low-rank estimate + comparator + scheduler
    PhaseCost attention; ///< sparse S = QK^T, softmax, A*V

    uint64_t totalCycles() const;
    double totalEnergyPj() const;
};

/** Full-model simulation outcome. */
struct RunReport
{
    std::string device;        ///< "DOTA-C", "GPU", "ELSA", ...
    std::string benchmark;
    /**
     * Datapath precision the run was modelled at ("FX16" / "INT8");
     * empty for devices without the knob (GPU, ELSA).
     */
    std::string datapath;
    double freq_ghz = 1.0;
    LayerReport per_layer;     ///< one layer (all layers identical)
    size_t layers = 0;

    uint64_t totalCycles() const;
    double timeMs() const;
    double attentionTimeMs() const;  ///< detection + attention phases
    double detectionTimeMs() const;
    double linearTimeMs() const;
    double totalEnergyJ() const;     ///< dynamic + leakage
    double leakage_j = 0.0;
};

} // namespace dota
