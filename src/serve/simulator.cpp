/**
 * @file
 * Event-driven serving simulator implementation.
 *
 * The event loop is strictly serial: one min-heap of (time, seq)
 * ordered events, where seq is the push order. All random draws
 * (transient failures) happen inside the loop from the fault seed, and
 * the only parallel section is warmCostCache()'s fixed-order cost
 * evaluation — which is what makes the ServeReport bit-identical at
 * every DOTA_THREADS.
 */
#include "serve/simulator.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"
#include "device/dota_device.hpp"
#include "serve/serve_loop.hpp"

namespace dota {

namespace {

/** Degradation ladder: DOTA modes by decreasing retention. */
constexpr DotaMode kLadder[] = {DotaMode::Full, DotaMode::Conservative,
                                DotaMode::Aggressive};
constexpr size_t kLadderLen = sizeof(kLadder) / sizeof(kLadder[0]);

} // namespace

ServingSimulator::ServingSimulator(ServeConfig cfg,
                                   const Benchmark &bench)
    : policy_(cfg.policy), costs_(bench)
{
    std::vector<DeviceSpec> specs = std::move(cfg.devices);
    if (specs.empty()) {
        DeviceSpec spec;
        spec.key = dotaModeKey(cfg.mode);
        spec.count = cfg.accelerators;
        spec.opts = cfg.options;
        specs.push_back(std::move(spec));
    }
    for (const DeviceSpec &spec : specs) {
        DOTA_ASSERT(spec.count >= 1, "device spec needs count >= 1");
        DOTA_ASSERT(spec.speed > 0.0, "device speed must be positive");
        // The native device, plus — for DOTA parts — every ladder mode
        // below it in retention, as pre-built degradation variants
        // shared by the spec's slots.
        std::vector<std::unique_ptr<Device>> levels;
        std::vector<double> retention;
        size_t start = kLadderLen;
        for (size_t m = 0; m < kLadderLen; ++m)
            if (dotaModeKey(kLadder[m]) == spec.key)
                start = m;
        if (start < kLadderLen) {
            for (size_t m = start; m < kLadderLen; ++m) {
                levels.push_back(DeviceRegistry::create(
                    dotaModeKey(kLadder[m]), spec.opts));
                retention.push_back(modeRetention(bench, kLadder[m]));
            }
        } else {
            levels.push_back(DeviceRegistry::create(spec.key,
                                                    spec.opts));
            retention.push_back(1.0); // no retention knob to turn
        }
        const size_t group = costs_.addGroup(std::move(levels));
        slots_.resize(slots_.size() + spec.count,
                      Slot{retention, spec.speed, group});
    }
    DOTA_ASSERT(!slots_.empty(), "serving fleet needs at least one "
                                 "accelerator");
}

size_t
ServingSimulator::ladderDepth(size_t accel) const
{
    return costs_.levels(slots_[accel].group);
}

std::string
ServingSimulator::deviceName(size_t accel, size_t level) const
{
    const size_t lvl = std::min(level, ladderDepth(accel) - 1);
    return costs_.device(slots_[accel].group, lvl).name();
}

double
ServingSimulator::retention(size_t accel, size_t level) const
{
    const Slot &slot = slots_[accel];
    return slot.retention[std::min(level, slot.retention.size() - 1)];
}

double
ServingSimulator::serviceMs(size_t accel, size_t level,
                            size_t seq_len) const
{
    const Slot &slot = slots_[accel];
    const size_t lvl = std::min(level, ladderDepth(accel) - 1);
    return costs_.cost(slot.group, lvl, seq_len).ms / slot.speed;
}

void
ServingSimulator::warmCostCache(
    const std::vector<size_t> &seq_lens) const
{
    costs_.warm(seq_lens);
}

namespace {

enum class EventType { Fault, Arrival, Retry, Probe, Completion };

enum class AttemptFate { Success, Transient, Timeout };

struct Event
{
    double t = 0.0;
    uint64_t seq = 0; ///< push order; the deterministic tie-break
    EventType type = EventType::Arrival;
    QueuedJob job{};        // Arrival / Retry / Completion
    FaultEvent fault{};     // Fault
    size_t device = 0;      // Completion
    uint64_t epoch = 0;     // Completion: device epoch at dispatch
    size_t level = 0;       // Completion: ladder level served
    double dispatch_t = 0.0;
    double energy_j = 0.0;  // Completion: attempt energy (prorated)
    AttemptFate fate = AttemptFate::Success;

    static Event
    ofFault(const FaultEvent &f)
    {
        return {.t = f.t_ms, .type = EventType::Fault, .fault = f};
    }

    static Event
    ofArrival(const Request &r)
    {
        return {.t = r.arrival_ms, .type = EventType::Arrival, .job = {r, 0}};
    }
};

} // namespace

ServeReport
ServingSimulator::run(const RequestTrace &trace, const FaultPlan &plan,
                      uint64_t fault_seed) const
{
    const size_t n = slots_.size();
    ServeLoop<Event> loop(*this, trace, plan, fault_seed);
    ServeReport &rep = loop.rep;
    warmCostCache(trace.distinctLengths());

    RobustDispatcher disp(policy_, n);
    std::vector<std::optional<Event>> inflight(n); ///< per-device attempt

    // Dispatch as many queued jobs as there are eligible idle devices.
    auto dispatchLoop = [&](double now) {
        for (;;) {
            std::optional<QueuedJob> head = disp.peek();
            if (!head)
                return;
            if (disp.expired(*head, now)) {
                const QueuedJob job = disp.pop();
                RequestOutcome &out = rep.outcomes[job.req.id];
                out.status = RequestStatus::ShedExpired;
                out.finish_ms = now;
                out.attempts = job.attempts;
                ++rep.shed_expired;
                continue;
            }
            const size_t level =
                disp.degradeLevel(disp.queueDepth(), loop.alive());
            // Earliest-completion-time among eligible devices; the
            // straggler multiplier is part of the choice, so dispatch
            // routes around slowed devices when a faster one is free.
            size_t target = n;
            double best = std::numeric_limits<double>::infinity();
            for (size_t a = 0; a < n; ++a) {
                if (!loop.health[a].alive || inflight[a] ||
                    disp.breakerOpen(a, now))
                    continue;
                const double ms =
                    serviceMs(a, level, head->req.seq_len) *
                    loop.health[a].slow;
                if (ms < best) {
                    best = ms;
                    target = a;
                }
            }
            if (target == n)
                return; // nobody eligible; a later event re-triggers
            QueuedJob job = disp.pop();
            ++job.attempts;
            const Slot &slot = slots_[target];
            const size_t lvl = std::min(level, ladderDepth(target) - 1);
            const CostCache::Cost cost =
                costs_.cost(slot.group, lvl, job.req.seq_len);
            const double service =
                cost.ms / slot.speed * loop.health[target].slow;
            Event done{.type = EventType::Completion, .job = job,
                       .device = target, .epoch = loop.health[target].epoch,
                       .level = lvl, .dispatch_t = now};
            if (policy_.timeout_ms > 0.0 &&
                service > policy_.timeout_ms) {
                // The attempt is cut off at the timeout; only the work
                // actually performed burns energy.
                done.fate = AttemptFate::Timeout;
                done.t = now + policy_.timeout_ms;
                done.energy_j =
                    cost.energy_j * policy_.timeout_ms / service;
            } else {
                done.fate = loop.injector.drawTransient(loop.chaos_rng)
                                ? AttemptFate::Transient
                                : AttemptFate::Success;
                done.t = now + service;
                done.energy_j = cost.energy_j;
            }
            inflight[target] = done;
            loop.push(std::move(done));
        }
    };

    auto onFault = [&](const FaultEvent &f, double now) {
        std::optional<Event> &d = inflight[f.device];
        switch (f.kind) {
          case FaultKind::Kill:
            if (loop.kill(f.device, now) && d) {
                // Fail-over: rescue the in-flight request onto the
                // survivors. The partial work is still paid for.
                const double done = now - d->dispatch_t;
                rep.devices[f.device].busy_ms += done;
                const double span = d->t - d->dispatch_t;
                if (span > 0.0)
                    rep.total_energy_j += d->energy_j * done / span;
                ++rep.failovers;
                disp.admit(d->job, /*forced=*/true);
                d.reset();
            }
            break;
          case FaultKind::Revive:
            loop.revive(f.device, now);
            break;
          case FaultKind::SlowStart:
            loop.health[f.device].slow = f.factor;
            break;
          case FaultKind::SlowEnd:
            loop.health[f.device].slow = 1.0;
            break;
          case FaultKind::Corrupt:
          case FaultKind::Drain:
            // KV-page corruption and drains only have meaning for the
            // generation engine; request-grain serving carries no
            // resident state to poison or evacuate.
            break;
        }
    };

    /** Settle an attempt; false when it is stale (device died). */
    auto onCompletion = [&](const Event &ev, double now) {
        if (ev.epoch != loop.health[ev.device].epoch)
            return false;
        DeviceServeStats &stats = rep.devices[ev.device];
        inflight[ev.device].reset();
        stats.busy_ms += now - ev.dispatch_t;
        rep.total_energy_j += ev.energy_j;
        if (ev.fate == AttemptFate::Success) {
            disp.onSuccess(ev.device);
            RequestOutcome &out =
                loop.complete(ev.job.req, ev.device, ev.level,
                              slots_[ev.device].retention[ev.level], now);
            out.dispatch_ms = ev.dispatch_t;
            out.attempts = ev.job.attempts;
            return true;
        }
        ++stats.failed_attempts;
        if (ev.fate == AttemptFate::Transient)
            ++rep.transient_errors;
        else
            ++rep.timeouts;
        if (disp.onFailure(ev.device, now)) {
            ++rep.breaker_trips;
            loop.push({.t = disp.breakerOpenUntil(ev.device),
                       .type = EventType::Probe});
        }
        if (ev.job.attempts <= policy_.max_retries) {
            ++rep.retries;
            loop.push({.t = now + disp.backoffMs(ev.job.attempts),
                       .type = EventType::Retry, .job = ev.job});
            return true;
        }
        RequestOutcome &out = rep.outcomes[ev.job.req.id];
        out.status = RequestStatus::Failed;
        out.device = static_cast<int>(ev.device);
        out.finish_ms = now;
        out.attempts = ev.job.attempts;
        ++rep.failed;
        return true;
    };

    loop.run([&](const Event &ev) {
        const double now = ev.t;
        switch (ev.type) {
          case EventType::Arrival:
            if (!disp.admit(ev.job, /*forced=*/false)) {
                RequestOutcome &out = rep.outcomes[ev.job.req.id];
                out.status = RequestStatus::ShedQueueFull;
                out.finish_ms = now;
                ++rep.shed_queue_full;
            }
            break;
          case EventType::Retry:
            disp.admit(ev.job, /*forced=*/true);
            break;
          case EventType::Probe:
            break;
          case EventType::Fault:
            onFault(ev.fault, now);
            break;
          case EventType::Completion:
            if (!onCompletion(ev, now))
                return; // stale: the device died mid-service
            break;
        }
        dispatchLoop(now);
    });
    loop.finish(disp);
    return std::move(rep);
}

} // namespace dota
