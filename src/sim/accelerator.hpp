/**
 * @file
 * Cycle-level (tile-granular) simulator of the DOTA accelerator
 * (Section 4, Figure 5/6).
 *
 * The simulator executes a transformer layer as the paper's three
 * sequential GEMM stages, with the detection pipeline inserted between
 * Linear Transformation and Multi-Head Attention:
 *
 *   Linear:    Q,K,V = X W (FX16, RMMU), plus output projection and the
 *              two FFN FC layers (all "Linear" in Figure 12c).
 *   Detection: X*P, (XP)W~Q / (XP)W~K at INT4, S~ = Q~K~^T at INT8,
 *              comparator thresholding, Scheduler reordering.
 *   Attention: sparse S = QK^T (FX16, Token-Parallel rounds from the
 *              Scheduler), MFU softmax (dequant -> exp/div -> requant),
 *              sparse A*V reusing the same schedule.
 *
 * Phase latency is max(compute cycles, SRAM-bandwidth cycles, DRAM
 * cycles); energies come from the EnergyModel. Decoder benchmarks run the
 * autoregressive GEMV path of Section 4.4.
 */
#pragma once

#include "sched/dataflow.hpp"
#include "sim/energy_model.hpp"
#include "sim/report.hpp"
#include "sim/rmmu.hpp"
#include "workloads/benchmark.hpp"
#include "workloads/mask_synth.hpp"

namespace dota {

/** Operating modes of Section 5.3. */
enum class DotaMode { Full, Conservative, Aggressive };

/** "DOTA-F" / "DOTA-C" / "DOTA-A". */
std::string dotaModeName(DotaMode mode);

/** Retention ratio a benchmark uses in a mode (1.0 for Full). */
double modeRetention(const Benchmark &bench, DotaMode mode);

/** Simulation options. */
struct SimOptions
{
    DotaMode mode = DotaMode::Conservative;
    Dataflow dataflow = Dataflow::TokenParallelOoO;
    size_t token_parallelism = 4;
    double detector_sigma = 0.25; ///< k = floor(sigma * head_dim)
    int detector_bits = 4;        ///< INT4 detection (products at INT8)
    /**
     * Overlap the detection pipeline with the attention stage by
     * configuring a slice of RMMU rows to low precision while the rest
     * compute FX16 attention (the row-wise reconfiguration of
     * Section 4.2). Detection latency hides behind attention;
     * energy is unchanged.
     */
    bool overlap_detection = false;
    uint64_t mask_seed = 99;      ///< representative-mask generation
    /**
     * Numeric precision of the model datapath — the Linear and
     * Attention GEMMs and their operand/KV/weight traffic. FX16 is the
     * paper's baseline; INT8 models the quantized inference path of
     * DESIGN.md §16 (4x MACs/PE on the RMMU sub-multipliers, 1-byte
     * operands, 0.27 pJ/MAC vs 1.00). Detection precision is separate
     * (detector_bits). FP32 has no RMMU mapping (rmmuMacsPerPe() == 0)
     * and is treated as FX16 — the accelerator's native float format.
     */
    Precision datapath = Precision::FX16;
};

/** The DOTA accelerator simulator. */
class DotaAccelerator
{
  public:
    explicit DotaAccelerator(HwConfig hw = HwConfig::dota(),
                             EnergyModel em = EnergyModel::tsmc22());

    /**
     * Simulate a full benchmark (encoder stack or decoder generation).
     * The attention graph statistics come from a representative
     * synthesized mask with the benchmark's structural profile
     * (DESIGN.md §2); pass your own via simulateWithMask for masks
     * harvested from trained models.
     */
    RunReport simulate(const Benchmark &bench,
                       const SimOptions &opt) const;

    /** Simulate with an explicit per-head-representative mask. */
    RunReport simulateWithMask(const Benchmark &bench,
                               const SimOptions &opt,
                               const SparseMask &mask) const;

    /**
     * Simulate autoregressive *generation* of a causal benchmark: the
     * strict-token-dependency GEMV path of Section 4.4, with the K/V
     * cache in DRAM and detection filtering the fetched vectors.
     * (simulate() evaluates causal benchmarks as single-pass scoring.)
     */
    RunReport simulateGeneration(const Benchmark &bench,
                                 const SimOptions &opt) const;

    /** One encoder layer; exposed for unit tests and ablations. */
    LayerReport encoderLayer(const ModelShape &shape,
                             const SimOptions &opt, double retention,
                             const DataflowStats &dataflow) const;

    /** One decoder layer over the full generation loop (Section 4.4). */
    LayerReport decoderLayer(const ModelShape &shape,
                             const SimOptions &opt,
                             double retention) const;

    const HwConfig &hw() const { return hw_; }

  private:
    PhaseCost linearPhase(const ModelShape &shape,
                          const SimOptions &opt) const;
    PhaseCost detectionPhase(const ModelShape &shape,
                             const SimOptions &opt,
                             const DataflowStats &dataflow) const;
    PhaseCost attentionPhase(const ModelShape &shape,
                             const SimOptions &opt, double retention,
                             const DataflowStats &dataflow) const;

    /** Apply memory-boundedness: cycles = max(compute, sram, dram). */
    void finalizePhase(PhaseCost &phase, uint64_t compute_cycles) const;

    /** Per-lane share of a quantity split across lanes. */
    uint64_t perLane(uint64_t total) const;

    HwConfig hw_;
    EnergyModel em_;
    Rmmu rmmu_; ///< one lane's RMMU
};

} // namespace dota
