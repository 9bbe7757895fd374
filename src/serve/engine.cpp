/**
 * @file
 * Continuous-batching generation engine implementation.
 *
 * One serial virtual-time event loop (arrival and step-completion
 * events, push-order tie-break) drives a per-device iteration loop:
 * every step decodes one token for each running sequence and admits
 * queued prompts for prefill under three budgets — batch slots, step
 * tokens, and KV pages. All service costs come from the ServingSimulator
 * cost cache (warmed in parallel with a fixed-order merge), so the
 * report is bit-identical at every DOTA_THREADS.
 */
#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>

#include "common/logging.hpp"
#include "serve/serve_loop.hpp"

namespace dota {

namespace {

/** Probe lengths of the linear per-token decode-cost calibration. */
constexpr size_t kProbeLo = 128;
constexpr size_t kProbeHi = 1024;

/** Fixed per-step launch overhead (kernel dispatch, bookkeeping). */
constexpr double kStepOverheadMs = 0.05;

/**
 * Preemptions one sequence may survive before it fails (restart thrash
 * guard). A sequence that OOMs alone on a device fails immediately —
 * retrying deterministically reproduces the OOM.
 */
constexpr size_t kMaxPreemptions = 2;

/**
 * Post-prefill eviction keeps min(kEvictRetention, ladder retention) of
 * the prompt's KV entries; each decode step then attends to
 * min(kTopkRetention, ladder retention) of the survivors.
 */
constexpr double kEvictRetention = 0.5;
constexpr double kTopkRetention = 0.5;

} // namespace

GenerationEngine::GenerationEngine(EngineConfig cfg,
                                   const Benchmark &bench)
    : cfg_(std::move(cfg)),
      sim_(ServeConfig{cfg_.devices, cfg_.policy}, bench)
{
    DOTA_ASSERT(cfg_.batch.max_batch_seqs >= 1,
                "batch needs at least one sequence slot");
    DOTA_ASSERT(cfg_.batch.max_step_tokens >= 1,
                "step token budget must be positive");
    const ModelShape &shape = bench.paper_shape;
    bytes_per_token_ =
        cfg_.kv.bytes_per_token > 0
            ? cfg_.kv.bytes_per_token
            : 2 * shape.layers * shape.dim * sizeof(float);
}

double
GenerationEngine::prefillMs(size_t accel, size_t level,
                            size_t prompt_len) const
{
    return sim_.serviceMs(accel, level, prompt_len);
}

double
GenerationEngine::decodeTokenMs(size_t accel, size_t level,
                                size_t attended) const
{
    // Per-token cost of a full pass grows linearly with the attended
    // context (attention is the quadratic term); fit through the two
    // probe lengths and extrapolate.
    const double lo =
        sim_.serviceMs(accel, level, kProbeLo) / double(kProbeLo);
    const double hi =
        sim_.serviceMs(accel, level, kProbeHi) / double(kProbeHi);
    const double slope = (hi - lo) / double(kProbeHi - kProbeLo);
    const double ms =
        lo + slope * (double(attended) - double(kProbeLo));
    return std::max(ms, 1e-6);
}

bool
GenerationEngine::slotHasDetector(size_t accel) const
{
    return sim_.ladderDepth(accel) > 1 || sim_.retention(accel, 0) < 1.0;
}

double
GenerationEngine::evictKeepFraction(size_t accel, size_t level) const
{
    if (!cfg_.kv.evict_after_prefill || !slotHasDetector(accel))
        return 1.0;
    return std::min(kEvictRetention, sim_.retention(accel, level));
}

double
GenerationEngine::topkFraction(size_t accel, size_t level) const
{
    if (!cfg_.kv.dynamic_topk || !slotHasDetector(accel))
        return 1.0;
    return std::min(kTopkRetention, sim_.retention(accel, level));
}

void
GenerationEngine::warm(const GenTrace &trace) const
{
    std::vector<size_t> lens = trace.distinctPromptLengths();
    lens.push_back(kProbeLo);
    lens.push_back(kProbeHi);
    sim_.warmCostCache(lens);
}

namespace {

enum class GenEventType
{
    Fault,
    Arrival,
    Step,
    Probe,
    Watchdog,
    Migration, ///< a sequence's sealed KV pages land on their target
};

struct GenEvent
{
    double t = 0.0;
    uint64_t seq = 0; ///< push order; the deterministic tie-break
    GenEventType type = GenEventType::Arrival;
    size_t id = 0;     // Arrival: request id; Migration: transfer id
    size_t device = 0; // Step / Fault / Probe / Watchdog
    uint64_t epoch = 0; // Step: device epoch; Watchdog: progress stamp
    FaultKind fkind = FaultKind::Kill; // Fault
    double factor = 1.0;               // Fault (SlowStart)

    static GenEvent
    ofFault(const FaultEvent &f)
    {
        return {.t = f.t_ms, .type = GenEventType::Fault, .device = f.device,
                .fkind = f.kind, .factor = f.factor};
    }

    static GenEvent
    ofArrival(const GenRequest &r)
    {
        return {.t = r.arrival_ms, .type = GenEventType::Arrival, .id = r.id};
    }
};

/** One sequence resident on a device (prefilling or decoding). */
struct Running
{
    size_t id = 0;
    bool prefill = true;    ///< this step runs prompt tokens, not a token
    size_t level = 0;       ///< ladder level fixed at admission
    size_t kv_tokens = 0;   ///< KV entries currently held
    size_t generated = 0;   ///< output tokens emitted so far
    size_t prefill_done = 0; ///< prompt tokens prefilled (streaming)
    size_t step_chunk = 0;   ///< prompt tokens this step (streaming)
    double first_token_ms = 0.0;
};

/**
 * Batching state of one device; its fail-stop and straggler state is
 * the ServeLoop's DeviceHealth.
 */
struct DevGen
{
    bool busy = false;
    bool draining = false;   ///< evacuating; down once residents leave
    bool probation = false;  ///< revived: reduced duty until proven
    size_t clean_steps = 0;  ///< transient-free steps since revival
    double step_start = 0.0;
    uint64_t progress = 0;   ///< bumps per completed step (watchdog)
    uint64_t watchdog_armed = ~0ull; ///< progress stamp when armed
    std::vector<Running> running;
    /** Migrated sequences landed mid-step: joined at the next step
     * boundary so an in-flight step's bookkeeping never covers them. */
    std::vector<Running> inbox;
    std::unique_ptr<PagedKvAllocator> alloc;
};

/** Why a resident left its device — decides the re-prefill accounting. */
enum class Departure
{
    Kill,      ///< fail-stop: a re-prefill counts a failover
    Drain,     ///< planned evacuation degenerating into a failover
    Watchdog,  ///< stall rescue: counted at departure
    Quarantine ///< poisoned KV: counted by the integrity sweep
};

/** One sequence's sealed KV pages in flight between arenas. */
struct MigPending
{
    Running r;
    KvSeqExport exp;
    double depart_ms = 0.0;
    Departure origin = Departure::Kill;
};

/** Run state of one request. */
struct ReqState
{
    const GenRequest *req = nullptr;
    size_t preemptions = 0;
    size_t restarts = 0;
    size_t queued_at_step = 0;  ///< engine steps when last queued
    double victim_since = -1.0; ///< latest chaos eviction; -1 when none
};

/**
 * KV entries a keep fraction @p frac of @p n leaves: rounded up, at
 * least one; all @p n at fraction 1.
 */
size_t
keptOf(double frac, size_t n)
{
    if (frac >= 1.0)
        return n;
    return std::max<size_t>(
        1, static_cast<size_t>(std::ceil(frac * static_cast<double>(n))));
}

/** The request a queued generation job carries (prompt = seq_len). */
Request
asRequest(const GenRequest &r)
{
    return Request{r.id, r.arrival_ms, r.prompt_len, r.deadline_ms};
}

/**
 * One GenerationEngine::run: the ServeLoop skeleton plus the batching,
 * KV and migration state, with one handler per GenEventType. A handler
 * returns false when its event is stale (a step of a past device life,
 * a watchdog whose stall already ended); after every other event each
 * device gets the chance to form its next step.
 */
class EngineRun
{
  public:
    EngineRun(const GenerationEngine &engine, const GenTrace &trace,
              const FaultPlan &plan, uint64_t fault_seed)
        : engine_(engine), sim_(engine.costModel()),
          bp_(engine.config().batch), mp_(engine.config().migrate),
          n_(sim_.size()), loop_(sim_, trace, plan, fault_seed),
          rep_(loop_.rep), gen_(rep_.gen),
          disp_(engine.config().policy, n_), reqs_(rep_.requests), dev_(n_)
    {
        for (const GenRequest &r : trace.requests) {
            DOTA_ASSERT(r.output_len >= 1,
                        "generation request needs output_len >= 1");
            reqs_[r.id].req = &r;
        }
        engine.warm(trace);
        const KvPolicy &kv = engine.config().kv;
        const KvCacheConfig kc{.page_tokens = kv.page_tokens,
                               .bytes_per_token = engine.bytesPerToken(),
                               .budget_bytes = kv.budget_bytes};
        for (DevGen &d : dev_)
            d.alloc = std::make_unique<PagedKvAllocator>(kc);
        gen_.enabled = true;
        gen_.kv_page_tokens = kc.page_tokens;
        gen_.kv_pages_total = n_ * dev_[0].alloc->totalPages();
        gen_.kv_budget_bytes = n_ * kc.budget_bytes;
    }

    ServeReport
    run()
    {
        loop_.run([this](const GenEvent &ev) {
            if (handle(ev))
                for (size_t a = 0; a < n_; ++a)
                    formStep(a, ev.t);
        });
        return finish();
    }

  private:
    bool
    handle(const GenEvent &ev)
    {
        switch (ev.type) {
          case GenEventType::Fault:
            return onFault(ev);
          case GenEventType::Arrival:
            return onArrival(ev);
          case GenEventType::Step:
            return onStep(ev);
          case GenEventType::Watchdog:
            return onWatchdog(ev);
          case GenEventType::Migration:
            return onMigration(ev);
          case GenEventType::Probe:
            break; // a breaker cooldown expired
        }
        return true;
    }

    bool
    onFault(const GenEvent &ev)
    {
        const size_t a = ev.device;
        const double now = ev.t;
        DevGen &d = dev_[a];
        switch (ev.fkind) {
          case FaultKind::Kill:
            if (loop_.health[a].alive)
                takeDown(a, now, Departure::Kill);
            break;
          case FaultKind::Revive:
            if (loop_.revive(a, now) && mp_.probation_steps > 0) {
                // Back from the dead: reduced duty until it runs
                // probation_steps clean steps.
                d.probation = true;
                d.clean_steps = 0;
            }
            break;
          case FaultKind::SlowStart:
            loop_.health[a].slow = ev.factor;
            break;
          case FaultKind::SlowEnd:
            loop_.health[a].slow = 1.0;
            break;
          case FaultKind::Corrupt: {
            if (!loop_.health[a].alive)
                break; // a dead device's arena is already empty
            const std::vector<uint32_t> used = d.alloc->usedPageList();
            if (used.empty())
                break;
            const uint32_t page = used[loop_.chaos_rng.uniformInt(
                static_cast<uint64_t>(used.size()))];
            d.alloc->corruptPage(
                page, static_cast<KvCorruption>(corrupt_cycle_++ % 3));
            break;
          }
          case FaultKind::Drain:
            if (!loop_.health[a].alive || d.draining)
                break; // dead / already evacuating: nothing to do
            ++gen_.drains;
            d.draining = true;
            // Graceful: an in-flight step finishes and keeps its
            // tokens; the evacuation runs at that step boundary.
            if (!d.busy)
                takeDown(a, now, Departure::Drain);
            break;
        }
        return true;
    }

    bool
    onArrival(const GenEvent &ev)
    {
        const GenRequest &req = *reqs_[ev.id].req;
        RequestOutcome &out = rep_.outcomes[req.id];
        const PagedKvAllocator &arena = *dev_[0].alloc;
        if (arena.pagesFor(req.prompt_len + 1) > arena.totalPages()) {
            // The prompt (plus its first generated token) exceeds a
            // whole pristine arena: admitting it could only end in a
            // retry/preempt livelock, so it is shed up-front as a
            // counted rejection.
            out.status = RequestStatus::ShedInfeasible;
            out.finish_ms = ev.t;
            ++rep_.shed_infeasible;
        } else if (!disp_.admit(QueuedJob{asRequest(req), 0},
                                /*forced=*/false)) {
            out.status = RequestStatus::ShedQueueFull;
            out.finish_ms = ev.t;
            ++rep_.shed_queue_full;
        } else {
            reqs_[req.id].queued_at_step = gen_.steps;
        }
        return true;
    }

    bool
    onStep(const GenEvent &ev)
    {
        const size_t a = ev.device;
        const double now = ev.t;
        DevGen &d = dev_[a];
        if (ev.epoch != loop_.health[a].epoch)
            return false; // stale: the device died mid-step
        d.busy = false;
        rep_.devices[a].busy_ms += now - d.step_start;
        // Integrity gate first: a sequence whose pages were poisoned
        // mid-step has this step's work discarded — no corrupted token
        // is ever served.
        sweepCorruption(a, now);
        if (loop_.injector.drawTransient(loop_.chaos_rng)) {
            voidStep(a, now);
            return true;
        }
        disp_.onSuccess(a);
        ++d.progress;
        ++gen_.steps;
        if (d.probation && ++d.clean_steps >= mp_.probation_steps) {
            d.probation = false;
            d.clean_steps = 0;
            ++gen_.probation_promotions;
        }
        emitTokens(a, now);
        retireFinished(a, now);
        growKv(a, now);
        samplePeak();
        if (d.draining) {
            // The in-flight step kept its tokens (the graceful part);
            // now the survivors evacuate.
            takeDown(a, now, Departure::Drain);
        }
        return true;
    }

    bool
    onWatchdog(const GenEvent &ev)
    {
        DevGen &d = dev_[ev.device];
        if (!loop_.health[ev.device].alive || d.busy || d.running.empty() ||
            ev.epoch != d.progress)
            return false; // progress was made since arming: false alarm
        // The device sat on residents for the whole stall budget:
        // migrate them so their decode stall stays bounded — live (KV
        // intact) when policy allows, by re-prefill otherwise.
        ++d.progress;
        evacuate(ev.device, ev.t, Departure::Watchdog);
        return true;
    }

    bool
    onMigration(const GenEvent &ev)
    {
        const double now = ev.t;
        auto mit = migrating_.find(static_cast<uint64_t>(ev.id));
        DOTA_ASSERT(mit != migrating_.end(), "unknown migration {}",
                    ev.id);
        const MigPending p = std::move(mit->second);
        migrating_.erase(mit);
        const size_t need = p.exp.pages.size();
        // Verify-on-arrival: every page's CRC32 seal is re-checked
        // against the image that travelled. A poisoned transfer is
        // refused whole — only this sequence re-prefills, and no token
        // is ever computed from the bad pages. A sound one with no
        // eligible target re-prefills too.
        const bool poisoned = PagedKvAllocator::verifyExport(p.exp) != 0;
        const size_t target = poisoned ? n_ : migrationTarget(need, now);
        if (target == n_) {
            ++(poisoned ? gen_.migration_poisoned
                        : gen_.migration_no_target);
            readmitVictim(p.r, now, p.origin);
            return true;
        }
        // All-or-nothing admission on the target arena.
        DevGen &t = dev_[target];
        const bool ok = t.alloc->importSeq(p.exp);
        DOTA_ASSERT(ok, "importSeq failed after eligibility check");
        Running r = p.r;
        r.level = std::min(r.level, sim_.ladderDepth(target) - 1);
        t.inbox.push_back(r);
        ++gen_.migrations;
        gen_.migrated_pages += need;
        gen_.migrated_bytes += need * t.alloc->pageBytes();
        gen_.saved_prefill_tokens += r.prefill_done;
        gen_.saved_decode_tokens += r.generated;
        migration_ms_.push_back(now - p.depart_ms);
        samplePeak();
        return true;
    }

    /** A transient fault voided the whole step of device @p a. */
    void
    voidStep(size_t a, double now)
    {
        DevGen &d = dev_[a];
        ++gen_.steps;
        ++gen_.transient_steps;
        ++rep_.transient_errors;
        ++rep_.devices[a].failed_attempts;
        if (d.probation) {
            // Demotion: the clean-step counter restarts; the breakers
            // keep parking the device in between.
            d.clean_steps = 0;
            ++gen_.probation_demotions;
        }
        if (disp_.onFailure(a, now)) {
            ++rep_.breaker_trips;
            loop_.push({.t = disp_.breakerOpenUntil(a),
                        .type = GenEventType::Probe, .device = a});
        }
        if (d.draining) {
            // The voided step still counts as "finished": the drain
            // proceeds at this step boundary.
            takeDown(a, now, Departure::Drain);
        }
        armWatchdog(a, now);
    }

    /**
     * Token bookkeeping of a completed step on @p a: prefills that
     * finished their prompt emit their first output token and run the
     * DOTA eviction pass; decodes emit one token each.
     */
    void
    emitTokens(size_t a, double now)
    {
        DevGen &d = dev_[a];
        bool any_prefill = false, any_decode = false;
        for (Running &r : d.running) {
            if (!r.prefill) {
                any_decode = true;
                ++gen_.decode_tokens;
                ++r.generated;
                continue;
            }
            any_prefill = true;
            r.prefill_done += r.step_chunk;
            gen_.prefill_tokens += r.step_chunk;
            if (r.prefill_done < r.kv_tokens)
                continue; // mid-stream: no first token yet
            r.first_token_ms = now;
            r.generated = 1;
            const size_t keep =
                keptOf(engine_.evictKeepFraction(a, r.level), r.kv_tokens);
            if (keep < r.kv_tokens) {
                d.alloc->shrinkTo(r.id, keep);
                gen_.evicted_tokens += r.kv_tokens - keep;
                ++gen_.evictions;
                r.kv_tokens = keep;
            }
            r.prefill = false;
        }
        gen_.prefill_steps += any_prefill ? 1 : 0;
        gen_.decode_steps += any_decode ? 1 : 0;
    }

    /** Emit the outcome of every finished sequence on @p a; free its KV. */
    void
    retireFinished(size_t a, double now)
    {
        DevGen &d = dev_[a];
        for (size_t i = 0; i < d.running.size();) {
            const Running &r = d.running[i];
            const GenRequest &req = *reqs_[r.id].req;
            if (r.generated < req.output_len) {
                ++i;
                continue;
            }
            // dispatch_ms and attempts were set at the last admission.
            RequestOutcome &out = loop_.complete(
                req, a, r.level, sim_.retention(a, r.level), now);
            out.generated = r.generated;
            out.ttft_ms = r.first_token_ms - req.arrival_ms;
            out.tpot_ms = req.output_len > 1
                              ? (now - r.first_token_ms) /
                                    double(req.output_len - 1)
                              : 0.0;
            gen_.output_tokens += req.output_len;
            ttfts_.push_back(out.ttft_ms);
            tpots_.push_back(out.tpot_ms);
            d.alloc->freeSeq(r.id);
            d.running.erase(d.running.begin() + static_cast<ptrdiff_t>(i));
        }
    }

    /**
     * KV growth on @p a: the token emitted this step is appended for
     * the next one. On OOM, preempt the youngest resident sequence
     * (latest arrival, id tie-break) — the oldest always makes
     * progress, which is what bounds waiting.
     */
    void
    growKv(size_t a, double now)
    {
        DevGen &d = dev_[a];
        for (size_t i = 0; i < d.running.size();) {
            if (d.running[i].prefill) {
                ++i; // mid-stream prefill emitted no token yet
                continue;
            }
            const size_t cur_id = d.running[i].id;
            if (d.alloc->appendTokens(cur_id, 1)) {
                ++i;
                continue;
            }
            if (d.running.size() == 1) {
                // Alone and still over budget: retrying would
                // deterministically reproduce this OOM.
                d.alloc->freeSeq(cur_id);
                d.running.erase(d.running.begin());
                failRequest(cur_id, now, true);
                break;
            }
            size_t vi = 0;
            for (size_t j = 1; j < d.running.size(); ++j) {
                const GenRequest &x = *reqs_[d.running[j].id].req;
                const GenRequest &v = *reqs_[d.running[vi].id].req;
                if (x.arrival_ms > v.arrival_ms ||
                    (x.arrival_ms == v.arrival_ms && x.id > v.id))
                    vi = j;
            }
            const bool self = d.running[vi].id == cur_id;
            preempt(a, vi, now);
            if (self)
                continue; // current gone; i now names the next seq
            if (vi < i)
                --i;
            // Retry the append with the victim's pages freed.
        }
    }

    /** Form and launch the next step of device @p a, if any. */
    void
    formStep(size_t a, double now)
    {
        DevGen &d = dev_[a];
        if (!loop_.health[a].alive || d.busy || d.draining)
            return;
        mergeInbox(a);
        // Verify seals before the residents are read again this step —
        // migrated arrivals included, so a page poisoned in the arena
        // after landing is caught before any token reads it.
        sweepCorruption(a, now);
        if (disp_.breakerOpen(a, now)) {
            armWatchdog(a, now); // residents stall while cooling down
            return;
        }
        size_t used_tokens = 0;
        for (Running &r : d.running)
            used_tokens += r.prefill ? 0 : 1; // one per decode
        // Resident unfinished prefills (streaming only — without
        // chunking a prefill always completes within its step) claim
        // their next chunk first, in resident order: whatever step
        // budget the decodes left, floored at one token so every
        // admitted prompt makes progress each step.
        for (Running &r : d.running) {
            if (!r.prefill)
                continue;
            const size_t remaining = r.kv_tokens - r.prefill_done;
            const size_t left = bp_.max_step_tokens > used_tokens
                                    ? bp_.max_step_tokens - used_tokens
                                    : 0;
            r.step_chunk = std::max<size_t>(1, std::min(remaining, left));
            used_tokens += r.step_chunk;
        }
        admitQueued(a, now, used_tokens);
        if (d.running.empty())
            return;
        double dur = kStepOverheadMs;
        for (const Running &r : d.running) {
            if (r.prefill)
                // One chunk's cost under streaming prefill (the full
                // prompt in one piece otherwise — step_chunk == prompt).
                dur += engine_.prefillMs(a, r.level, r.step_chunk);
            else // a dynamic top-k of the surviving KV entries
                dur += engine_.decodeTokenMs(
                    a, r.level,
                    keptOf(engine_.topkFraction(a, r.level), r.kv_tokens));
        }
        d.busy = true;
        d.step_start = now;
        loop_.push({.t = now + dur * loop_.health[a].slow, // straggler
                    .type = GenEventType::Step, .device = a,
                    .epoch = loop_.health[a].epoch});
        samplePeak();
    }

    /**
     * Strict-FIFO admission of queued prompts onto @p a under the batch
     * slot, step-token and KV-page budgets: the head is never skipped,
     * so no queued request can starve while others are admitted.
     */
    void
    admitQueued(size_t a, double now, size_t &used_tokens)
    {
        DevGen &d = dev_[a];
        const bool chunked = bp_.streaming_prefill;
        // Dead devices deepen the ladder: the same queue over less
        // capacity is more pressure, so fault-shrunk fleets shed
        // retention before they shed requests.
        const size_t level =
            std::min(disp_.degradeLevel(disp_.queueDepth(), loop_.alive()),
                     sim_.ladderDepth(a) - 1);
        // A device on probation runs at reduced concurrency until it
        // proves itself (floored at one slot so it can prove anything).
        const size_t slot_cap =
            d.probation ? std::min(bp_.max_batch_seqs,
                                   std::max<size_t>(1, mp_.probation_seqs))
                        : bp_.max_batch_seqs;
        for (;;) {
            std::optional<QueuedJob> head = disp_.peek();
            if (!head)
                break;
            const size_t id = head->req.id;
            const size_t prompt = head->req.seq_len;
            const bool too_long = !chunked && prompt > bp_.max_step_tokens;
            if (too_long || !d.alloc->feasible(prompt + 1)) {
                // Deterministic fail-fast: a prompt over the step budget
                // (streaming prefill lifts the limit) can never be
                // scheduled, and holding the FIFO head would starve the
                // queue. An arena too small even empty — possible only
                // after quarantine shrank it (pristine infeasibility is
                // shed at arrival) — leaves the head for a healthier
                // one, failing it only when no alive arena can hold it.
                bool anywhere = false;
                for (size_t b = 0; b < n_ && !too_long && !anywhere; ++b)
                    anywhere = loop_.health[b].alive &&
                               dev_[b].alloc->feasible(prompt + 1);
                if (anywhere)
                    break;
                disp_.pop();
                failRequest(id, now, true);
                continue;
            }
            if (d.running.size() >= slot_cap)
                break;
            if (chunked ? used_tokens >= bp_.max_step_tokens
                        : used_tokens + prompt > bp_.max_step_tokens)
                break;
            if (!d.alloc->canFit(prompt))
                break; // wait for pages to free up
            disp_.pop();
            const size_t chunk =
                chunked ? std::min(prompt, bp_.max_step_tokens - used_tokens)
                        : prompt;
            startPrefill(a, {.id = id, .level = level, .kv_tokens = prompt,
                             .step_chunk = chunk},
                         now);
            used_tokens += chunk;
        }
    }

    /** Make @p r resident on @p a: its prompt pages and bookkeeping. */
    void
    startPrefill(size_t a, const Running &r, double now)
    {
        DevGen &d = dev_[a];
        const bool created = d.alloc->createSeq(r.id);
        DOTA_ASSERT(created, "sequence {} already resident", r.id);
        const bool ok = d.alloc->appendTokens(r.id, r.kv_tokens);
        DOTA_ASSERT(ok, "prefill allocation failed after canFit");
        d.running.push_back(r);
        const size_t wait = gen_.steps - reqs_[r.id].queued_at_step;
        gen_.max_queue_wait_steps = std::max(gen_.max_queue_wait_steps, wait);
        if (bp_.starve_step_budget > 0) {
            DOTA_ASSERT(wait <= bp_.starve_step_budget,
                        "request {} starved {} steps (budget {})", r.id,
                        wait, bp_.starve_step_budget);
        }
        if (reqs_[r.id].victim_since >= 0.0) {
            // A chaos victim is back in prefill: recovered.
            recoveries_ms_.push_back(now - reqs_[r.id].victim_since);
            reqs_[r.id].victim_since = -1.0;
            ++gen_.recoveries;
        }
        RequestOutcome &out = rep_.outcomes[r.id];
        out.dispatch_ms = now;
        out.attempts = attemptsOf(r.id);
    }

    /**
     * Move every resident off device @p a (killed, drained, or flagged
     * by the watchdog): sealed pages live-migrate to a healthy arena
     * when policy allows; otherwise they are released and the request
     * re-prefills on whatever device next has room.
     */
    void
    evacuate(size_t a, double now, Departure origin)
    {
        DevGen &d = dev_[a];
        mergeInbox(a);
        for (const Running &r : d.running) {
            if (origin == Departure::Watchdog)
                ++gen_.watchdog_migrations;
            if (migrateOut(a, r, now, origin))
                continue;
            d.alloc->freeSeq(r.id);
            readmitVictim(r, now, origin);
        }
        d.running.clear();
    }

    /**
     * Take live device @p a down — killed, or drained at a step
     * boundary for planned maintenance (a later revive brings it back
     * through probation) — and evacuate its residents.
     */
    void
    takeDown(size_t a, double now, Departure origin)
    {
        DevGen &d = dev_[a];
        loop_.kill(a, now); // voids any event addressed to the old life
        d.draining = false; // a kill supersedes a pending drain
        ++d.progress;       // disarms any pending watchdog
        if (d.busy) {
            // A killed step is still paid for.
            rep_.devices[a].busy_ms += now - d.step_start;
            d.busy = false;
        }
        evacuate(a, now, origin);
    }

    /**
     * Start the live migration of resident @p r off device @p a: its
     * sealed pages are copied into an in-transit image, the source copy
     * is torn down (healthy frames freed, poisoned ones quarantined —
     * poisoned images still travel so verify-on-arrival catches them),
     * and a Migration event lands pages * page_ms later. Returns false
     * with nothing done when migration is disabled.
     */
    bool
    migrateOut(size_t a, const Running &r, double now, Departure origin)
    {
        if (!mp_.enabled)
            return false;
        DevGen &d = dev_[a];
        MigPending p{.r = r, .exp = d.alloc->exportSeq(r.id),
                     .depart_ms = now, .origin = origin};
        const size_t npages = p.exp.pages.size();
        gen_.corrupted_pages_detected += d.alloc->quarantineSeq(r.id);
        const uint64_t mig = next_migration_++;
        migrating_.emplace(mig, std::move(p));
        loop_.push({.t = now + mp_.page_ms * double(npages),
                    .type = GenEventType::Migration, .id = mig});
        return true;
    }

    /**
     * Deterministic migration target for @p need pages: the eligible
     * device with the most free pages, lowest index on ties; n_ when
     * none. Probation, draining, breaker-open and full devices are
     * never targets.
     */
    size_t
    migrationTarget(size_t need, double now) const
    {
        size_t target = n_;
        size_t best_free = 0;
        for (size_t b = 0; b < n_; ++b) {
            const DevGen &t = dev_[b];
            const size_t fp = t.alloc->freePages();
            if (!loop_.health[b].alive || t.draining || t.probation ||
                disp_.breakerOpen(b, now) || fp < need ||
                t.running.size() + t.inbox.size() >= bp_.max_batch_seqs)
                continue;
            if (target == n_ || fp > best_free) {
                target = b;
                best_free = fp;
            }
        }
        return target;
    }

    /**
     * Re-queue chaos victim @p r for a full re-prefill on whatever
     * device next has room; its KV pages are already released. A kill
     * or drain counts a failover. Work done so far is wasted; restarts
     * are capped by the retry budget so a cursed request fails instead
     * of thrashing forever.
     */
    void
    readmitVictim(const Running &r, double now, Departure why)
    {
        if (why == Departure::Kill || why == Departure::Drain) {
            ++rep_.failovers;
            ++(r.prefill ? gen_.prefill_failovers : gen_.decode_failovers);
        }
        gen_.wasted_prefill_tokens += r.prefill_done;
        gen_.wasted_decode_tokens += r.generated;
        if (++reqs_[r.id].restarts > engine_.config().policy.max_retries) {
            failRequest(r.id, now, false);
            return;
        }
        ++rep_.retries;
        requeue(r.id);
        reqs_[r.id].victim_since = now;
    }

    /**
     * Preempt the running sequence at @p vi of device @p a: release its
     * pages and re-queue it, or fail it once it exhausts the preemption
     * budget.
     */
    void
    preempt(size_t a, size_t vi, double now)
    {
        DevGen &d = dev_[a];
        const size_t id = d.running[vi].id;
        d.alloc->freeSeq(id);
        d.running.erase(d.running.begin() + static_cast<ptrdiff_t>(vi));
        ++gen_.preemptions;
        if (++reqs_[id].preemptions > kMaxPreemptions) {
            failRequest(id, now, false);
            return;
        }
        requeue(id);
    }

    /**
     * Put @p id back in the queue for a restart from prefill, keyed by
     * its original arrival so FIFO order is preserved.
     */
    void
    requeue(size_t id)
    {
        disp_.admit(QueuedJob{asRequest(*reqs_[id].req),
                              rep_.outcomes[id].attempts},
                    /*forced=*/true);
        reqs_[id].queued_at_step = gen_.steps;
    }

    /** Terminal failure of @p id (KV infeasible / restart-exhausted). */
    void
    failRequest(size_t id, double now, bool oom)
    {
        RequestOutcome &out = rep_.outcomes[id];
        out.status = RequestStatus::Failed;
        out.finish_ms = now;
        out.attempts = attemptsOf(id);
        ++rep_.failed;
        if (oom)
            ++gen_.kv_ooms;
    }

    /** Prefill admissions of @p id so far, the current one included. */
    size_t
    attemptsOf(size_t id) const
    {
        return 1 + reqs_[id].preemptions + reqs_[id].restarts;
    }

    /** Join migrated arrivals at a step boundary of device @p a. */
    void
    mergeInbox(size_t a)
    {
        DevGen &d = dev_[a];
        for (const Running &r : d.inbox)
            d.running.push_back(r);
        d.inbox.clear();
    }

    /**
     * Integrity gate of device @p a: seal-check every resident
     * sequence; any with a poisoned page is quarantined (the bad frames
     * leave capacity) and re-prefilled — no token computed from
     * corrupted KV is ever served.
     */
    void
    sweepCorruption(size_t a, double now)
    {
        DevGen &d = dev_[a];
        for (size_t i = 0; i < d.running.size();) {
            if (d.alloc->verifySeq(d.running[i].id) == 0) {
                ++i;
                continue;
            }
            const Running victim = d.running[i];
            gen_.corrupted_pages_detected +=
                d.alloc->quarantineSeq(victim.id);
            ++gen_.corruption_reprefills;
            d.running.erase(d.running.begin() + static_cast<ptrdiff_t>(i));
            readmitVictim(victim, now, Departure::Quarantine);
        }
    }

    /** Bound the decode stall of @p a's residents (0 = disabled). */
    void
    armWatchdog(size_t a, double now)
    {
        DevGen &d = dev_[a];
        if (bp_.watchdog_stall_ms <= 0.0 || d.running.empty() ||
            d.watchdog_armed == d.progress)
            return; // disabled / nothing to guard / already armed
        d.watchdog_armed = d.progress;
        loop_.push({.t = now + bp_.watchdog_stall_ms,
                    .type = GenEventType::Watchdog, .device = a,
                    .epoch = d.progress});
    }

    void
    samplePeak()
    {
        size_t pages = 0;
        for (const DevGen &d : dev_)
            pages += d.alloc->usedPages();
        if (pages > gen_.kv_peak_pages) {
            gen_.kv_peak_pages = pages;
            gen_.kv_peak_bytes = pages * dev_[0].alloc->pageBytes();
        }
    }

    ServeReport
    finish()
    {
        loop_.finish(disp_);
        for (const DevGen &d : dev_)
            gen_.quarantined_pages += d.alloc->quarantinedPages();
        // Every departed transfer landed (the heap only drains once all
        // Migration events have been handled) — no sequence is ever
        // lost in flight.
        DOTA_ASSERT(migrating_.empty(), "{} migrations still in flight",
                    migrating_.size());
        for (auto *v : {&recoveries_ms_, &migration_ms_, &ttfts_, &tpots_})
            std::sort(v->begin(), v->end());
        gen_.recovery_p50_ms = percentileSorted(recoveries_ms_, 0.50);
        gen_.recovery_p95_ms = percentileSorted(recoveries_ms_, 0.95);
        gen_.recovery_max_ms = percentileSorted(recoveries_ms_, 1.0);
        gen_.migration_p50_ms = percentileSorted(migration_ms_, 0.50);
        gen_.migration_p95_ms = percentileSorted(migration_ms_, 0.95);
        gen_.migration_max_ms = percentileSorted(migration_ms_, 1.0);
        gen_.kv_peak_occupancy =
            gen_.kv_pages_total > 0
                ? double(gen_.kv_peak_pages) / double(gen_.kv_pages_total)
                : 0.0;
        gen_.ttft_p50_ms = percentileSorted(ttfts_, 0.50);
        gen_.ttft_p95_ms = percentileSorted(ttfts_, 0.95);
        gen_.ttft_p99_ms = percentileSorted(ttfts_, 0.99);
        gen_.tpot_p50_ms = percentileSorted(tpots_, 0.50);
        gen_.tpot_p95_ms = percentileSorted(tpots_, 0.95);
        gen_.tpot_p99_ms = percentileSorted(tpots_, 0.99);
        return std::move(rep_);
    }

    const GenerationEngine &engine_;
    const ServingSimulator &sim_;
    const BatchPolicy &bp_;
    const MigrationPolicy &mp_;
    const size_t n_;
    ServeLoop<GenEvent> loop_;
    ServeReport &rep_;
    GenMetrics &gen_;
    RobustDispatcher disp_;
    std::vector<ReqState> reqs_; ///< by id (dense)
    std::vector<DevGen> dev_;
    std::vector<double> recoveries_ms_, migration_ms_, ttfts_, tpots_;
    size_t corrupt_cycle_ = 0;
    // Live KV migration (DESIGN.md §15): sealed pages in flight between
    // arenas, keyed by transfer id. Everything runs inside the serial
    // event loop, so victim order, target choice and landing times are
    // identical at every DOTA_THREADS.
    std::map<uint64_t, MigPending> migrating_;
    uint64_t next_migration_ = 0;
};

} // namespace

ServeReport
GenerationEngine::run(const GenTrace &trace) const
{
    return run(trace, FaultPlan{}, 1);
}

ServeReport
GenerationEngine::run(const GenTrace &trace, const FaultPlan &plan,
                      uint64_t fault_seed) const
{
    return EngineRun(*this, trace, plan, fault_seed).run();
}

} // namespace dota
