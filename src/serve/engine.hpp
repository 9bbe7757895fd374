/**
 * @file
 * Autoregressive serving engine: continuous batching over a paged KV
 * cache with DOTA-guided eviction (DESIGN.md §12).
 *
 * Where the ServingSimulator (simulator.hpp) dispatches whole
 * independent requests, the GenerationEngine serves GenRequests at
 * token grain: each device of the fleet runs an iteration loop that
 * forms a fresh batch every step — continuing one decode token for
 * every running sequence and admitting queued prompts for prefill when
 * the batch-slot, step-token and KV-page budgets allow — so short
 * requests never wait behind long ones (continuous batching in the
 * Orca/vLLM sense, motivated by the prefill/decode phase split of
 * "Demystifying BERT").
 *
 * The DOTA detector is repurposed as the KV-eviction policy, the
 * RocketKV recipe at serving grain: after prefill, only the strongest
 * half of the prompt's KV entries is kept (weak attentions are omitted
 * from memory, not just from compute), and each decode step attends to
 * a dynamic top-k of half the surviving entries. Both fractions are
 * further tightened by the degradation ladder — under queue pressure
 * deeper ladder levels now shrink KV footprints as well as service
 * time. Only DOTA slots evict (a GPU slot has no detector).
 *
 * A run is one EngineRun (engine.cpp) with one handler per event type,
 * on the ServeLoop skeleton it shares with ServingSimulator::run
 * (serve_loop.hpp).
 *
 * Determinism contract: one serial virtual-time event loop; service
 * costs come from the device cost cache and a per-(group, level)
 * linear per-token decode model calibrated from two probe lengths —
 * both warmed in parallel with a fixed-order merge — so the ServeReport
 * is bit-identical at every DOTA_THREADS.
 */
#pragma once

#include "serve/fault.hpp"
#include "serve/kv_cache.hpp"
#include "serve/simulator.hpp"

namespace dota {

/** Batch-formation knobs of the continuous-batching scheduler. */
struct BatchPolicy
{
    /** Concurrent sequences one device may hold (batch slots). */
    size_t max_batch_seqs = 8;

    /**
     * Token budget of one step: each decoding sequence costs one
     * token, a prefill costs its whole prompt. Prompts longer than
     * this can never be scheduled and fail deterministically —
     * unless streaming_prefill lifts the limit.
     */
    size_t max_step_tokens = 8192;

    /**
     * Chunked (streaming) prefill: prompts longer than the step-token
     * budget are admitted anyway (KV feasibility still required, all
     * pages reserved at admission) and prefilled across consecutive
     * steps, each step consuming up to the budget left after the
     * decodes — the serving-side face of the row attention kernel,
     * whose one score row per thread (no n x n matrix) is what makes
     * a 32k-token prefill pass feasible at all. The first output token
     * (TTFT) and the DOTA eviction pass happen when the last chunk
     * lands. Off by default so existing generation goldens are
     * untouched.
     */
    bool streaming_prefill = false;

    /**
     * Fairness bound: no queued request may wait more than this many
     * engine steps before its prefill starts (0 disables the check).
     * Admission is strict FIFO, so this asserts the no-starvation
     * theorem rather than implementing a side channel around it.
     */
    size_t starve_step_budget = 0;

    /**
     * Chaos watchdog (0 disables): a device holding resident
     * sequences that completes no step for this long (breaker open,
     * repeated transient voids) has its residents force-migrated back
     * to the queue — bounding every request's decode stall at the
     * price of a re-prefill elsewhere.
     */
    double watchdog_stall_ms = 0.0;
};

/**
 * Live KV migration and device probation (DESIGN.md §15).
 *
 * When a device is killed, drained (`drain:<dev>@<ms>`), or flagged by
 * the watchdog, its resident sequences' sealed KV pages are copied to
 * a healthy device instead of being thrown away: each page's CRC32
 * seal is re-checked on arrival, admission on the target arena is
 * all-or-nothing, and a sequence whose transfer carries a poisoned
 * page (or finds no eligible target) falls back to the classic
 * re-prefill failover — so migration strictly reduces wasted work and
 * never serves a corrupted token. Victims depart in resident order and
 * targets are chosen by (most free pages, lowest index) inside the
 * serial event loop, so the run stays bit-identical at any
 * DOTA_THREADS.
 */
struct MigrationPolicy
{
    /** Master switch; off reproduces the re-prefill-only engine. */
    bool enabled = true;

    /** Transfer cost of one sealed KV page over the fabric. */
    double page_ms = 0.02;

    /**
     * Probation of revived devices: clean (transient-free) steps
     * required before a revived device returns to full duty. While on
     * probation it admits at most probation_seqs sequences and is
     * never a migration target, so a flapping device cannot repeatedly
     * absorb and kill migrations. Any transient failure resets the
     * clean-step count (a demotion); the existing circuit breakers
     * keep parking it between demotions. 0 disables probation.
     */
    size_t probation_steps = 8;

    /** Batch-slot cap while on probation (reduced concurrency). */
    size_t probation_seqs = 1;
};

/** KV-cache sizing and the DOTA eviction policy. */
struct KvPolicy
{
    /** Token slots per page. */
    size_t page_tokens = 16;

    /** Per-device KV byte budget. */
    size_t budget_bytes = 256ull << 20;

    /**
     * Bytes of K+V state per token; 0 derives 2 * layers * dim * 4
     * from the benchmark's paper shape.
     */
    size_t bytes_per_token = 0;

    /**
     * Post-prefill eviction (false keeps every prompt entry): keep
     * min(0.5, ladder retention) of the prompt's KV entries.
     */
    bool evict_after_prefill = true;

    /**
     * Dynamic top-k decode (false attends to every entry): each decode
     * step attends to min(0.5, ladder retention) of the survivors.
     */
    bool dynamic_topk = true;
};

/** Fleet + policy of a generation deployment. */
struct EngineConfig
{
    /** Same fleet description as ServeConfig. */
    std::vector<DeviceSpec> devices;

    /**
     * Honored: queue_limit, degradation and degrade_depth_*, max_retries
     * (the restart cap of chaos victims) and both breaker knobs.
     * Ignored: timeout_ms, backoff_ms, backoff_cap_ms and
     * max_queue_age_ms, which only the ServingSimulator uses.
     */
    ServePolicy policy;

    BatchPolicy batch;
    KvPolicy kv;
    MigrationPolicy migrate;
};

/** Token-grain autoregressive serving engine over a device fleet. */
class GenerationEngine
{
  public:
    GenerationEngine(EngineConfig cfg, const Benchmark &bench);

    /**
     * Serve @p trace to completion. Deterministic: same (config,
     * trace) => bit-identical ServeReport at any thread count.
     */
    ServeReport run(const GenTrace &trace) const;

    /**
     * Serve @p trace under the chaos described by @p plan: kill/slow/
     * transient faults strike mid-prefill and mid-decode, corrupt
     * events flip bits in resident KV pages (detected by the per-page
     * CRC32 seals and quarantined before any token is served from
     * them), drain events gracefully evacuate a device for planned
     * maintenance, and victims recover deterministically — by live KV
     * migration when MigrationPolicy allows (sealed pages re-verified
     * on arrival, decode resumes without re-prefill), by re-prefill on
     * a healthy device under capped restarts otherwise. Replayable
     * bit-for-bit from (trace seed, plan, fault_seed) at any
     * DOTA_THREADS; an empty plan is exactly the fault-free run.
     */
    ServeReport run(const GenTrace &trace, const FaultPlan &plan,
                    uint64_t fault_seed) const;

    size_t size() const { return sim_.size(); }

    /** KV bytes one token occupies (config override or model-derived). */
    size_t bytesPerToken() const { return bytes_per_token_; }

    /** Prefill cost of a @p prompt_len prompt on @p accel at @p level. */
    double prefillMs(size_t accel, size_t level, size_t prompt_len) const;

    /**
     * Cost of one decode token attending to @p attended KV entries on
     * @p accel at @p level (calibrated linear per-token model).
     */
    double decodeTokenMs(size_t accel, size_t level,
                         size_t attended) const;

    /** Whether slot @p accel carries a DOTA detector (can evict). */
    bool slotHasDetector(size_t accel) const;

    /** Effective KV keep fraction of slot @p accel at ladder @p level. */
    double evictKeepFraction(size_t accel, size_t level) const;

    /** Effective decode top-k fraction of @p accel at @p level. */
    double topkFraction(size_t accel, size_t level) const;

    /** Pre-warm every cost and calibration entry (parallel inside). */
    void warm(const GenTrace &trace) const;

    const EngineConfig &config() const { return cfg_; }

    /** The cost/ladder substrate (retention, device names, ...). */
    const ServingSimulator &costModel() const { return sim_; }

  private:
    EngineConfig cfg_;
    ServingSimulator sim_; ///< ladder variants + (group, level, len) costs
    size_t bytes_per_token_ = 0;
};

} // namespace dota
