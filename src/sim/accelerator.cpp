/**
 * @file
 * Implementation of the DOTA accelerator simulator.
 */
#include "sim/accelerator.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/topk.hpp"

namespace dota {

namespace {

uint64_t
ceilDiv(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

/** Operand precision of the detection GEMMs for a configured bit width. */
Precision
detectOperandPrecision(int bits)
{
    switch (bits) {
      case 2:
        return Precision::INT2;
      case 4:
        return Precision::INT4;
      case 8:
        return Precision::INT8;
      default:
        DOTA_FATAL("detector bits must be 2, 4, or 8 (got {})", bits);
    }
}

/** The S~ GEMM runs at twice the operand width (Section 5.5). */
Precision
detectScorePrecision(int bits)
{
    switch (bits) {
      case 2:
        return Precision::INT4;
      case 4:
        return Precision::INT8;
      case 8:
        return Precision::FX16;
      default:
        DOTA_FATAL("detector bits must be 2, 4, or 8 (got {})", bits);
    }
}

/**
 * RMMU-executable datapath precision: INT8 runs on the PE
 * sub-multipliers; everything else (FX16, and FP32 which has no RMMU
 * mapping) runs as FX16, the array's native float format.
 */
Precision
datapathPrecision(const SimOptions &opt)
{
    return opt.datapath == Precision::INT8 ? Precision::INT8
                                           : Precision::FX16;
}

/** Bytes per datapath element (2 at FX16, 1 at INT8). */
uint64_t
datapathBytes(const SimOptions &opt)
{
    return static_cast<uint64_t>(precisionBits(datapathPrecision(opt))) /
           8;
}

/** SRAM bytes a lane can move per cycle. */
double
laneSramBytesPerCycle(const HwConfig &hw)
{
    return static_cast<double>(hw.lane.sram_banks) *
           static_cast<double>(hw.lane.sram_bank_bytes_per_cycle);
}

} // namespace

std::string
dotaModeName(DotaMode mode)
{
    switch (mode) {
      case DotaMode::Full:
        return "DOTA-F";
      case DotaMode::Conservative:
        return "DOTA-C";
      case DotaMode::Aggressive:
        return "DOTA-A";
    }
    DOTA_PANIC("unknown mode");
}

double
modeRetention(const Benchmark &bench, DotaMode mode)
{
    switch (mode) {
      case DotaMode::Full:
        return 1.0;
      case DotaMode::Conservative:
        return bench.retention_conservative;
      case DotaMode::Aggressive:
        return bench.retention_aggressive;
    }
    DOTA_PANIC("unknown mode");
}

DotaAccelerator::DotaAccelerator(HwConfig hw, EnergyModel em)
    : hw_(hw), em_(em), rmmu_(hw.lane.rmmu)
{}

uint64_t
DotaAccelerator::perLane(uint64_t total) const
{
    return ceilDiv(total, hw_.lanes);
}

void
DotaAccelerator::finalizePhase(PhaseCost &phase,
                               uint64_t compute_cycles) const
{
    const double sram_cycles =
        static_cast<double>(phase.sram_bytes) /
        (laneSramBytesPerCycle(hw_) * static_cast<double>(hw_.lanes));
    const double dram_cycles =
        static_cast<double>(phase.dram_bytes) / hw_.dramBytesPerCycle();
    phase.cycles = std::max<uint64_t>(
        compute_cycles,
        static_cast<uint64_t>(std::max(sram_cycles, dram_cycles)));
}

PhaseCost
DotaAccelerator::linearPhase(const ModelShape &shape,
                             const SimOptions &opt) const
{
    const uint64_t n = shape.seq_len, d = shape.dim, ffn = shape.ffn_dim;
    const Precision prec = datapathPrecision(opt);
    const uint64_t eb = datapathBytes(opt);
    PhaseCost phase;
    phase.name = "linear";

    struct Gemm { uint64_t m, k, nout; };
    const Gemm gemms[] = {
        {n, d, 3 * d}, // QKV projection
        {n, d, d},     // attention output projection
        {n, d, ffn},   // FC1
        {n, ffn, d},   // FC2
    };

    uint64_t compute = 0;
    for (const Gemm &g : gemms) {
        compute += rmmu_.gemmCycles(g.m, g.k, perLane(g.nout), prec);
        phase.macs += g.m * g.k * g.nout;
        // Operand traffic with output-stationary tiling: A re-read per
        // column tile, B re-read per row tile, C written once.
        const uint64_t col_tiles =
            ceilDiv(perLane(g.nout), hw_.lane.rmmu.pe_cols);
        const uint64_t row_tiles = ceilDiv(g.m, hw_.lane.rmmu.pe_rows);
        phase.sram_bytes += eb * (g.m * g.k * col_tiles * hw_.lanes +
                                  g.k * g.nout * row_tiles) +
                            eb * g.m * g.nout;
    }

    // Weights stream from DRAM once per layer (they exceed on-chip SRAM
    // for every evaluated model).
    phase.dram_bytes = eb * (4 * d * d + 2 * d * ffn);

    // Cross-lane partial-sum accumulation (Figure 5b).
    const uint64_t accums = n * (2 * d + ffn);
    compute += ceilDiv(accums, hw_.accumulator_width);

    // INT8 requantizes every GEMM output back to the activation grid in
    // the MFU (DESIGN.md §16's inter-layer requantization points).
    const uint64_t requants =
        prec == Precision::INT8 ? n * (3 * d + d + ffn + d) : 0;

    phase.energy_pj =
        static_cast<double>(phase.macs) * em_.macPj(prec) +
        static_cast<double>(phase.sram_bytes) * em_.sram_read_pj +
        static_cast<double>(phase.dram_bytes) * em_.dram_pj +
        static_cast<double>(accums) * em_.accumulator_pj +
        static_cast<double>(requants) * em_.quant_pj;

    finalizePhase(phase, compute);
    return phase;
}

PhaseCost
DotaAccelerator::detectionPhase(const ModelShape &shape,
                                const SimOptions &opt,
                                const DataflowStats &dataflow) const
{
    const uint64_t n = shape.seq_len, d = shape.dim, h = shape.heads;
    const uint64_t dh = shape.headDim();
    const uint64_t k = std::max<uint64_t>(
        1, static_cast<uint64_t>(opt.detector_sigma *
                                 static_cast<double>(dh)));

    const Precision op_prec = detectOperandPrecision(opt.detector_bits);
    const Precision score_prec = detectScorePrecision(opt.detector_bits);

    PhaseCost phase;
    phase.name = "detection";

    // Work parallelizes across the whole fabric (heads map to lanes and,
    // when heads < lanes, query-row chunks split further): per-head
    // single-array cycles scaled by heads/lanes.
    // X*P (shared across heads), rows split across lanes.
    uint64_t compute = rmmu_.gemmCycles(perLane(n), d, k, op_prec);
    uint64_t macs_low = n * d * k;

    // Per-head low-rank transforms Q~ and K~.
    compute += ceilDiv(h * 2 * rmmu_.gemmCycles(n, k, k, op_prec),
                       hw_.lanes);
    macs_low += h * 2 * n * k * k;

    // Estimated scores S~ = Q~ K~^T at the doubled width.
    compute += ceilDiv(h * rmmu_.gemmCycles(n, k, n, score_prec),
                       hw_.lanes);
    const uint64_t macs_score = h * n * n * k;

    phase.macs = macs_low + macs_score;

    // Quantize X and requantize the Q~/K~ products in the MFU.
    const uint64_t quants = n * d + h * 2 * n * k;

    // Comparator scans every estimated score; Scheduler issues run ahead
    // of the attention phase (pipelined), so they cost energy here but
    // no additional latency.
    const uint64_t compares = h * n * n;
    const uint64_t issues = h * dataflow.key_loads;

    // S~ is written to and re-read from SRAM at 1 byte (INT8), plus the
    // low-rank operand traffic.
    phase.sram_bytes = 2 * h * n * n + 2 * (n * d + h * 2 * n * k);

    phase.energy_pj =
        static_cast<double>(macs_low) * em_.macPj(op_prec) +
        static_cast<double>(macs_score) * em_.macPj(score_prec) +
        static_cast<double>(quants) * em_.quant_pj +
        static_cast<double>(compares) * em_.comparator_pj +
        static_cast<double>(issues) *
            em_.schedulerIssuePj(opt.token_parallelism) +
        static_cast<double>(phase.sram_bytes) * em_.sram_read_pj;

    finalizePhase(phase, compute);
    return phase;
}

PhaseCost
DotaAccelerator::attentionPhase(const ModelShape &shape,
                                const SimOptions &opt, double retention,
                                const DataflowStats &dataflow) const
{
    const uint64_t n = shape.seq_len, h = shape.heads;
    const uint64_t dh = shape.headDim();
    const size_t t = opt.token_parallelism;
    const bool dense = retention >= 1.0;
    const Precision prec = datapathPrecision(opt);
    const uint64_t eb = datapathBytes(opt);

    PhaseCost phase;
    phase.name = "attention";

    uint64_t compute = 0;
    uint64_t connections; ///< per-head (query, key) pairs computed
    uint64_t key_loads;   ///< per-head key-vector loads
    if (dense) {
        connections = n * n;
        key_loads = ceilDiv(n, t) * n; // every group streams all keys
        compute += ceilDiv(
            h * (rmmu_.gemmCycles(n, dh, n, prec) +
                 rmmu_.gemmCycles(n, n, dh, prec)),
            hw_.lanes);
    } else {
        connections = dataflow.connections;
        key_loads = dataflow.key_loads;
        // S = QK^T then A*V reuse the same schedule (Section 4.3);
        // query groups distribute across lanes. INT8 shortens each
        // T-slot dot product by the PE micro-MAC factor (4x).
        compute += ceilDiv(
            h * 2 * rmmu_.sparseAttentionCycles(dataflow.rounds, t, dh),
            hw_.lanes * rmmuMacsPerPe(prec));
    }
    phase.macs = 2 * h * connections * dh;

    // Streaming tiled dataflow only (tile_flushes == 0 otherwise):
    // every contributing (group, tile) pair rescales the group's
    // d_h-wide accumulators in lock-step — one extra T-slot round per
    // flush, the FLASH-D recurrence that buys the tile-bounded score
    // buffer.
    if (dataflow.tile_flushes > 0) {
        compute += ceilDiv(
            h * rmmu_.sparseAttentionCycles(dataflow.tile_flushes, t, dh),
            hw_.lanes * rmmuMacsPerPe(prec));
        phase.macs += h * dataflow.tile_flushes * t * dh;
    }

    // MFU softmax: dequant -> exp -> sum -> div -> requant per kept score.
    const uint64_t sm_elems = h * connections;
    compute += ceilDiv(sm_elems,
                       hw_.lane.mfu_exp_units * hw_.lanes) +
               ceilDiv(sm_elems,
                       hw_.lane.mfu_div_units * hw_.lanes);

    // Key and value vector traffic at the datapath element width.
    const uint64_t kv_bytes = h * 2 * key_loads * dh * eb;
    phase.sram_bytes = kv_bytes + eb * n * shape.dim /* output write */ +
                       eb * sm_elems /* scores through MFU */;

    // When the K/V working set exceeds the SRAM budget, the layer runs
    // key-stationary: K and V stream from DRAM once per layer and every
    // scheduled load is then SRAM-served from the resident tile.
    const double kv_resident = static_cast<double>(
        n * dh * ceilDiv(h, hw_.lanes) * 2 * eb);
    const double budget = 0.7 * static_cast<double>(hw_.lane.sramBytes());
    if (kv_resident > budget)
        phase.dram_bytes = h * n * dh * 2 * eb;

    phase.energy_pj =
        static_cast<double>(phase.macs) * em_.macPj(prec) +
        static_cast<double>(sm_elems) *
            (em_.mfu_exp_pj + em_.mfu_div_pj + 2.0 * em_.quant_pj) +
        static_cast<double>(phase.sram_bytes) * em_.sram_read_pj +
        static_cast<double>(phase.dram_bytes) * em_.dram_pj;

    finalizePhase(phase, compute);
    return phase;
}

LayerReport
DotaAccelerator::encoderLayer(const ModelShape &shape,
                              const SimOptions &opt, double retention,
                              const DataflowStats &dataflow) const
{
    LayerReport report;
    report.linear = linearPhase(shape, opt);
    if (retention < 1.0)
        report.detection = detectionPhase(shape, opt, dataflow);
    else
        report.detection.name = "detection";
    report.attention = attentionPhase(shape, opt, retention, dataflow);

    if (opt.overlap_detection && report.detection.cycles > 0) {
        // Row-wise RMMU reconfiguration runs detection for the *next*
        // tile alongside the current attention tile: the slower of the
        // two sets the stage latency and detection contributes none of
        // its own (Section 4.2's motivation for reconfigurability).
        report.attention.cycles = std::max(report.attention.cycles,
                                           report.detection.cycles);
        report.detection.cycles = 0;
    }
    return report;
}

LayerReport
DotaAccelerator::decoderLayer(const ModelShape &shape,
                              const SimOptions &opt,
                              double retention) const
{
    const uint64_t n = shape.seq_len, d = shape.dim, h = shape.heads;
    const uint64_t ffn = shape.ffn_dim, dh = shape.headDim();
    const uint64_t k = std::max<uint64_t>(
        1, static_cast<uint64_t>(opt.detector_sigma *
                                 static_cast<double>(dh)));
    const bool dense = retention >= 1.0;
    const Precision prec = datapathPrecision(opt);
    const uint64_t eb = datapathBytes(opt);

    LayerReport report;
    report.linear.name = "linear";
    report.detection.name = "detection";
    report.attention.name = "attention";

    // Per-token GEMV compute is identical for every step.
    const uint64_t linear_cycles_tok =
        rmmu_.gemmCycles(1, d, perLane(3 * d), prec) +
        rmmu_.gemmCycles(1, d, perLane(d), prec) +
        rmmu_.gemmCycles(1, d, perLane(ffn), prec) +
        rmmu_.gemmCycles(1, ffn, perLane(d), prec);
    const uint64_t linear_macs_tok = 4 * d * d + 2 * d * ffn;
    const uint64_t weight_bytes_tok = eb * (4 * d * d + 2 * d * ffn);

    uint64_t linear_compute = n * linear_cycles_tok;
    report.linear.macs = n * linear_macs_tok;
    report.linear.dram_bytes = n * weight_bytes_tok; // streamed per token
    report.linear.sram_bytes = n * eb * (3 * d + d + ffn + d);
    report.linear.energy_pj =
        static_cast<double>(report.linear.macs) * em_.macPj(prec) +
        static_cast<double>(report.linear.dram_bytes) * em_.dram_pj +
        static_cast<double>(report.linear.sram_bytes) * em_.sram_read_pj;
    finalizePhase(report.linear, linear_compute);

    // Attention + detection over the generation loop.
    uint64_t det_compute = 0, att_compute = 0;
    uint64_t det_macs_i4 = 0, det_macs_i8 = 0;
    uint64_t kept_total = 0, visible_total = 0;
    const uint64_t h_lane = ceilDiv(h, hw_.lanes);
    for (uint64_t tok = 1; tok <= n; ++tok) {
        const uint64_t keep = dense ? tok : keepCount(retention, tok);
        kept_total += keep;
        visible_total += tok;
        if (!dense) {
            // Project the new token, score it against the K~ cache.
            det_compute +=
                rmmu_.gemmCycles(1, d, k,
                                 detectOperandPrecision(
                                     opt.detector_bits)) +
                h_lane * 2 *
                    rmmu_.gemmCycles(1, k, k, detectOperandPrecision(
                                                  opt.detector_bits)) +
                h_lane * rmmu_.gemmCycles(1, k, tok,
                                          detectScorePrecision(
                                              opt.detector_bits));
            det_macs_i4 += d * k + h * 2 * k * k;
            det_macs_i8 += h * k * tok;
        }
        // Sparse GEMV against kept keys, then kept values.
        att_compute +=
            h_lane * 2 * rmmu_.gemmCycles(1, dh, keep, prec);
        att_compute += ceilDiv(h_lane * keep, hw_.lane.mfu_exp_units) +
                       ceilDiv(h_lane * keep, hw_.lane.mfu_div_units);
    }

    report.detection.macs = det_macs_i4 + det_macs_i8;
    report.detection.sram_bytes = h * visible_total * 1; // S~ bytes
    report.detection.energy_pj =
        static_cast<double>(det_macs_i4) *
            em_.macPj(detectOperandPrecision(opt.detector_bits)) +
        static_cast<double>(det_macs_i8) *
            em_.macPj(detectScorePrecision(opt.detector_bits)) +
        static_cast<double>(h * visible_total) * em_.comparator_pj +
        static_cast<double>(report.detection.sram_bytes) *
            em_.sram_read_pj;
    finalizePhase(report.detection, det_compute);

    report.attention.macs = 2 * h * kept_total * dh;
    // The K/V cache lives in DRAM at these lengths; only selected
    // vectors are fetched — the decoder's memory saving (Section 4.4).
    // An INT8 datapath halves the fetched bytes per kept vector.
    report.attention.dram_bytes = h * 2 * kept_total * dh * eb;
    report.attention.sram_bytes = h * 2 * kept_total * dh * eb;
    report.attention.energy_pj =
        static_cast<double>(report.attention.macs) * em_.macPj(prec) +
        static_cast<double>(h * kept_total) *
            (em_.mfu_exp_pj + em_.mfu_div_pj + 2.0 * em_.quant_pj) +
        static_cast<double>(report.attention.dram_bytes) * em_.dram_pj +
        static_cast<double>(report.attention.sram_bytes) *
            em_.sram_read_pj;
    finalizePhase(report.attention, att_compute);

    return report;
}

RunReport
DotaAccelerator::simulate(const Benchmark &bench,
                          const SimOptions &opt) const
{
    const double retention = modeRetention(bench, opt.mode);
    if (retention < 1.0) {
        Rng rng(opt.mask_seed);
        const SparseMask mask = synthesizeMask(
            bench.paper_shape.seq_len, profileFor(bench.id, retention),
            rng, bench.paper_shape.decoder /* causal */);
        return simulateWithMask(bench, opt, mask);
    }
    return simulateWithMask(bench, opt, SparseMask());
}

RunReport
DotaAccelerator::simulateGeneration(const Benchmark &bench,
                                    const SimOptions &opt) const
{
    DOTA_ASSERT(bench.paper_shape.decoder,
                "simulateGeneration needs a causal benchmark");
    const double retention = modeRetention(bench, opt.mode);
    RunReport report;
    report.device = dotaModeName(opt.mode) + " (generation)";
    report.benchmark = bench.name;
    report.datapath = precisionName(datapathPrecision(opt));
    report.freq_ghz = hw_.freq_ghz;
    report.layers = bench.paper_shape.layers;
    report.per_layer = decoderLayer(bench.paper_shape, opt, retention);
    const double scale = static_cast<double>(hw_.lanes) / 4.0;
    report.leakage_j = em_.leakage_w * scale * report.timeMs() * 1e-3;
    return report;
}

RunReport
DotaAccelerator::simulateWithMask(const Benchmark &bench,
                                  const SimOptions &opt,
                                  const SparseMask &mask) const
{
    const double retention = modeRetention(bench, opt.mode);
    const ModelShape &shape = bench.paper_shape;

    RunReport report;
    report.device = dotaModeName(opt.mode);
    report.benchmark = bench.name;
    report.datapath = precisionName(datapathPrecision(opt));
    report.freq_ghz = hw_.freq_ghz;
    report.layers = shape.layers;

    // Causal (decoder) benchmarks are evaluated as single-pass scoring
    // (perplexity workloads process the whole sequence at once with a
    // causal mask); autoregressive *generation* uses decoderLayer via
    // simulateGeneration().
    DataflowStats ds;
    if (retention < 1.0) {
        DOTA_ASSERT(mask.rows() == shape.seq_len,
                    "mask rows {} != sequence length {}", mask.rows(),
                    shape.seq_len);
        ds = analyzeDataflow(mask, opt.dataflow, opt.token_parallelism);
    } else if (shape.decoder) {
        // Dense causal: row i sees i+1 keys.
        const uint64_t n = shape.seq_len;
        ds.connections = n * (n + 1) / 2;
        ds.rounds = 0;
        ds.key_loads = 0;
    }
    report.per_layer = encoderLayer(shape, opt, retention, ds);

    // Leakage scales with the instantiated fabric.
    const double scale =
        static_cast<double>(hw_.lanes) / 4.0;
    report.leakage_j =
        em_.leakage_w * scale * report.timeMs() * 1e-3;
    return report;
}

} // namespace dota
