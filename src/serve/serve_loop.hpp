/**
 * @file
 * The virtual-time skeleton both serving loops run on (DESIGN.md §9):
 * ServingSimulator::run at request grain and the GenerationEngine at
 * token grain. A ServeLoop owns what does not depend on the grain; each
 * loop supplies its event type and one handler per event.
 */
#pragma once

#include <algorithm>
#include <numeric>
#include <queue>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "serve/dispatcher.hpp"
#include "serve/fault.hpp"
#include "serve/report.hpp"
#include "serve/simulator.hpp"

namespace dota {

/** Fail-stop and straggler state of one device during a run. */
struct DeviceHealth
{
    bool alive = true;
    double slow = 1.0;        ///< straggler service-time multiplier
    uint64_t epoch = 0;       ///< bumps on death: voids in-flight work
    double down_since = -1.0;
};

/**
 * One serving run's loop state. @p Event carries `double t` and
 * `uint64_t seq`, and builds itself from a fault (`Event::ofFault`) and
 * from a trace request (`Event::ofArrival`).
 */
template <typename Event>
class ServeLoop
{
  public:
    /**
     * Report set-up for @p trace on @p fleet: every request gets an
     * outcome, ShedStarved until a handler decides otherwise. Random
     * (MTBF) faults are drawn out to twice the arrival horizon plus
     * slack, so the drain phase stays under chaos too. Faults enter the
     * heap before arrivals, so a device dies before it can accept work
     * arriving at the same instant.
     */
    template <typename Trace>
    ServeLoop(const ServingSimulator &fleet, const Trace &trace,
              const FaultPlan &plan, uint64_t fault_seed)
        : injector(plan, fleet.size(), trace.horizonMs() * 2.0 + 1000.0,
                   fault_seed),
          // Transient draws (and corruption victim picks) use a stream
          // forked off the same seed; the serial loop fixes the draw
          // order, so the run replays bit-for-bit at any thread count.
          chaos_rng(fault_seed ^ 0x9e3779b97f4a7c15ULL),
          health(fleet.size())
    {
        const size_t n = fleet.size();
        size_t max_ladder = 1;
        rep.devices.resize(n);
        for (size_t a = 0; a < n; ++a) {
            max_ladder = std::max(max_ladder, fleet.ladderDepth(a));
            rep.devices[a].name = fleet.deviceName(a, 0);
        }
        rep.completed_by_level.assign(max_ladder, 0);
        rep.requests = trace.requests.size();
        rep.outcomes.resize(rep.requests);
        std::vector<bool> seen(rep.requests, false);
        for (const auto &r : trace.requests) {
            DOTA_ASSERT(r.id < rep.requests && !seen[r.id],
                        "trace ids must be dense and unique (id {} of {})",
                        r.id, rep.requests);
            seen[r.id] = true;
            RequestOutcome &out = rep.outcomes[r.id];
            out.id = r.id;
            out.arrival_ms = r.arrival_ms;
            out.seq_len = servedLength(r);
            out.status = RequestStatus::ShedStarved;
        }
        for (const FaultEvent &f : injector.schedule())
            push(Event::ofFault(f));
        for (const auto &r : trace.requests)
            push(Event::ofArrival(r));
    }

    /** Schedule @p ev; events at equal times pop in push order. */
    void
    push(Event ev)
    {
        ev.seq = next_seq_++;
        heap_.push(std::move(ev));
    }

    /** Hand every event to @p handle until the heap drains. */
    template <typename Handle>
    void
    run(Handle &&handle)
    {
        while (!heap_.empty()) {
            const Event ev = heap_.top();
            heap_.pop();
            horizon = std::max(horizon, ev.t);
            handle(ev);
        }
    }

    /** Take @p a down at @p now; false when it is already down. */
    bool
    kill(size_t a, double now)
    {
        DeviceHealth &d = health[a];
        if (!d.alive)
            return false;
        d.alive = false;
        d.down_since = now;
        ++d.epoch; // voids the device's in-flight work
        return true;
    }

    /** Bring @p a back at @p now; false when it is already up. */
    bool
    revive(size_t a, double now)
    {
        DeviceHealth &d = health[a];
        if (d.alive)
            return false;
        d.alive = true;
        rep.devices[a].down_intervals.push_back({d.down_since, now});
        d.down_since = -1.0;
        return true;
    }

    /** Devices alive now. */
    size_t
    alive() const
    {
        return std::count_if(health.begin(), health.end(),
                             [](const DeviceHealth &d) { return d.alive; });
    }

    /**
     * Record that @p req completed on device @p a at @p now, served at
     * ladder @p level with @p retention. dispatch_ms, attempts and the
     * token fields of the outcome are the caller's.
     */
    template <typename Req>
    RequestOutcome &
    complete(const Req &req, size_t a, size_t level, double retention,
             double now)
    {
        RequestOutcome &out = rep.outcomes[req.id];
        out.status = RequestStatus::Completed;
        out.device = static_cast<int>(a);
        out.finish_ms = now;
        out.level = level;
        out.retention = retention;
        out.deadline_missed = now > req.deadline_ms;
        if (out.deadline_missed)
            ++rep.deadline_misses;
        ++rep.completed;
        ++rep.completed_by_level[level];
        ++rep.devices[a].completed;
        latencies_.push_back(now - req.arrival_ms);
        retention_sum_ += retention;
        return out;
    }

    /**
     * Report finish. Requests still queued when the heap drained can
     * never be served (the capacity is gone for the rest of the run):
     * they are shed as starved, so every request ends in a terminal
     * state. Open down intervals close at the horizon.
     */
    void
    finish(RobustDispatcher &disp)
    {
        while (disp.queueDepth() > 0) {
            const QueuedJob job = disp.pop();
            RequestOutcome &out = rep.outcomes[job.req.id];
            out.status = RequestStatus::ShedStarved;
            out.finish_ms = horizon;
            out.attempts = job.attempts;
            ++rep.shed_starved;
        }
        for (size_t a = 0; a < health.size(); ++a) {
            const double down = health[a].down_since;
            if (down >= 0.0)
                rep.devices[a].down_intervals.push_back(
                    {down, std::max(horizon, down)});
            rep.devices[a].breaker_trips = disp.breakerTrips(a);
        }
        std::sort(latencies_.begin(), latencies_.end());
        rep.p50_ms = percentileSorted(latencies_, 0.50);
        rep.p95_ms = percentileSorted(latencies_, 0.95);
        rep.p99_ms = percentileSorted(latencies_, 0.99);
        if (!latencies_.empty()) {
            rep.mean_latency_ms =
                std::accumulate(latencies_.begin(), latencies_.end(), 0.0) /
                static_cast<double>(latencies_.size());
            rep.max_latency_ms = latencies_.back();
        }
        const auto completed = static_cast<double>(rep.completed);
        rep.deadline_miss_rate =
            rep.completed > 0
                ? static_cast<double>(rep.deadline_misses) / completed
                : 0.0;
        rep.horizon_ms = horizon;
        rep.goodput_seq_s =
            horizon > 0.0 ? static_cast<double>(rep.completed -
                                                rep.deadline_misses) /
                                (horizon * 1e-3)
                          : 0.0;
        rep.mean_retention =
            rep.completed > 0 ? retention_sum_ / completed : 0.0;
    }

    ServeReport rep;
    const FaultInjector injector;
    Rng chaos_rng;
    std::vector<DeviceHealth> health;
    double horizon = 0.0; ///< virtual time of the latest event

  private:
    static size_t servedLength(const Request &r) { return r.seq_len; }
    static size_t servedLength(const GenRequest &r) { return r.prompt_len; }

    static constexpr auto later = [](const Event &a, const Event &b) {
        return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    };

    std::priority_queue<Event, std::vector<Event>, decltype(later)> heap_;
    uint64_t next_seq_ = 0;
    std::vector<double> latencies_;
    double retention_sum_ = 0.0;
};

} // namespace dota
