/**
 * @file
 * Hardware configuration of the DOTA accelerator (Table 2).
 *
 * One DOTA accelerator = 4 compute Lanes + a standalone Accumulator,
 * clocked at 1 GHz in 22nm. Each Lane holds a 32x16 multi-precision PE
 * array (the RMMU), a Detector unit with the Scheduler, a Multi-Function
 * Unit (16 Exp, 16 Div, 16x16 adder tree) and a 640 KB banked SRAM
 * (10 x 64 KB). Peak throughput is 2 TOPS (counting one MAC as one op);
 * the GPU comparison scales the fabric to 12 TOPS as in Section 5.1.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace dota {

/** Geometry of the Reconfigurable Matrix Multiplication Unit. */
struct RmmuConfig
{
    size_t pe_rows = 32;
    size_t pe_cols = 16;

    size_t pes() const { return pe_rows * pe_cols; }
};

/** One compute Lane (Figure 6). */
struct LaneConfig
{
    RmmuConfig rmmu;
    size_t token_parallelism = 4; ///< queries processed in parallel
    size_t sram_banks = 10;
    size_t sram_bank_kb = 64;
    size_t sram_bank_bytes_per_cycle = 32; ///< 256-bit bank ports
    size_t mfu_exp_units = 16;
    size_t mfu_div_units = 16;
    size_t mfu_adder_tree = 256; ///< 16x16 adder tree inputs

    size_t sramBytes() const { return sram_banks * sram_bank_kb * 1024; }
};

/** Whole-accelerator configuration. */
struct HwConfig
{
    size_t lanes = 4;
    double freq_ghz = 1.0;
    LaneConfig lane;
    size_t accumulator_width = 512; ///< accumulations per cycle

    /** Off-chip memory. */
    double dram_gb_per_s = 64.0;

    /** Table 2 configuration (one accelerator, 2 TOPS). */
    static HwConfig dota();

    /**
     * Fabric scaled to ~12 TOPS (6 accelerators / 24 lanes) for the
     * V100 comparison of Section 5.1, with proportionally more DRAM
     * bandwidth (HBM-class part).
     */
    static HwConfig dotaScaledForGpu();

    /** FX16 MACs per cycle across the whole fabric. */
    uint64_t
    fabricMacsPerCycle() const
    {
        return static_cast<uint64_t>(lanes) * lane.rmmu.pes();
    }

    /** Peak TOPS at FX16 (1 MAC = 1 op). */
    double
    peakTops() const
    {
        return static_cast<double>(fabricMacsPerCycle()) * freq_ghz / 1e3;
    }

    /** DRAM bytes deliverable per cycle. */
    double
    dramBytesPerCycle() const
    {
        return dram_gb_per_s / freq_ghz; // GB/s / (Gcycle/s) = B/cycle
    }

    /** Total on-chip SRAM bytes. */
    size_t sramBytes() const { return lanes * lane.sramBytes(); }
};

} // namespace dota
