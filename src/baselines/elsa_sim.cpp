/**
 * @file
 * Implementation of the ELSA baseline model.
 */
#include "baselines/elsa_sim.hpp"

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

} // namespace

ElsaAccelerator::ElsaAccelerator(HwConfig hw, EnergyModel em,
                                 ElsaConfig cfg)
    : hw_(hw), em_(em), cfg_(cfg), rmmu_(hw.lane.rmmu)
{}

RunReport
ElsaAccelerator::simulate(const Benchmark &bench) const
{
    const ModelShape &s = bench.paper_shape;
    const uint64_t n = s.seq_len, h = s.heads, dh = s.headDim();
    const uint64_t m = cfg_.hash_bits;
    const uint64_t h_lane = ceilDiv(h, hw_.lanes);
    const uint64_t keep = keepCount(cfg_.retention, n);
    const uint64_t nnz = n * keep;

    RunReport report;
    report.device = "ELSA";
    report.benchmark = bench.name;
    report.freq_ghz = hw_.freq_ghz;
    report.layers = s.layers;
    report.per_layer.linear.name = "linear"; // not executed by ELSA

    // ---- Detection: sign-random-projection hashing + candidate search.
    PhaseCost &det = report.per_layer.detection;
    det.name = "detection";
    // Hash every query and key: 2n vectors x dh x m MACs per head, plus
    // key-norm computation (n x dh).
    const uint64_t hash_macs = h * (2 * n * dh * m + n * dh);
    uint64_t det_compute =
        h_lane * (2 * rmmu_.gemmCycles(n, dh, m, Precision::FX16) +
                  rmmu_.gemmCycles(n, dh, 1, Precision::FX16));
    // Hamming distance + norm-scaled comparison for all n^2 pairs; the
    // dedicated XOR/popcount units retire one candidate per PE per cycle.
    const uint64_t cand = h * n * n;
    det_compute += ceilDiv(h_lane * n * n, hw_.lane.rmmu.pes());
    det.macs = hash_macs;
    det.sram_bytes = h * (2 * n * (m / 8) /* hash bits */ + n * n / 8);
    det.energy_pj =
        static_cast<double>(hash_macs) * em_.macPj(Precision::FX16) +
        static_cast<double>(cand) * (em_.comparator_pj + 0.01 * m) +
        static_cast<double>(det.sram_bytes) * em_.sram_read_pj;
    const double det_sram_cycles =
        static_cast<double>(det.sram_bytes) /
        (static_cast<double>(hw_.lanes) * hw_.lane.sram_banks *
         hw_.lane.sram_bank_bytes_per_cycle);
    det.cycles = std::max<uint64_t>(
        det_compute, static_cast<uint64_t>(det_sram_cycles));

    // ---- Attention on candidates, query-serial (no K/V reuse).
    PhaseCost &att = report.per_layer.attention;
    att.name = "attention";
    att.macs = 2 * h * nnz * dh;
    const double util = cfg_.utilization;
    uint64_t att_compute = static_cast<uint64_t>(
        static_cast<double>(att.macs) /
        (static_cast<double>(hw_.fabricMacsPerCycle()) * util));
    att_compute += ceilDiv(h_lane * nnz, hw_.lane.mfu_exp_units) +
                   ceilDiv(h_lane * nnz, hw_.lane.mfu_div_units);

    // Every selected connection fetches its key and value vector: loads
    // scale with nnz, not with distinct keys (Figure 8, row-by-row).
    // K/V stream from DRAM once per layer when they exceed SRAM; the
    // per-connection traffic is then SRAM-served.
    const uint64_t kv_bytes = h * 2 * nnz * dh * 2;
    att.sram_bytes = kv_bytes + 2 * n * s.dim + 2 * h * nnz;
    const double kv_resident =
        static_cast<double>(n * dh * h_lane * 2 * 2);
    const double budget = 0.7 * static_cast<double>(hw_.lane.sramBytes());
    if (kv_resident > budget)
        att.dram_bytes = h * n * dh * 2 * 2;
    att.energy_pj =
        static_cast<double>(att.macs) * em_.macPj(Precision::FX16) +
        static_cast<double>(h * nnz) *
            (em_.mfu_exp_pj + em_.mfu_div_pj + 2.0 * em_.quant_pj) +
        static_cast<double>(att.sram_bytes) * em_.sram_read_pj +
        static_cast<double>(att.dram_bytes) * em_.dram_pj;

    const double att_sram_cycles =
        static_cast<double>(att.sram_bytes) /
        (static_cast<double>(hw_.lanes) * hw_.lane.sram_banks *
         hw_.lane.sram_bank_bytes_per_cycle);
    const double att_dram_cycles =
        static_cast<double>(att.dram_bytes) / hw_.dramBytesPerCycle();
    att.cycles = std::max<uint64_t>(
        att_compute, static_cast<uint64_t>(
                         std::max(att_sram_cycles, att_dram_cycles)));

    const double scale = static_cast<double>(hw_.lanes) / 4.0;
    report.leakage_j = em_.leakage_w * scale * report.timeMs() * 1e-3;
    return report;
}

} // namespace dota
