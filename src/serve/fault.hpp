/**
 * @file
 * Seeded fault injection for the online serving simulator.
 *
 * A FaultPlan describes what goes wrong during a serving run: scheduled
 * fail-stop device deaths and revivals, straggler slowdown intervals,
 * a per-attempt transient-error probability, and (optionally) random
 * fail-stop faults drawn from an exponential MTBF. The FaultInjector
 * materializes the plan into a sorted, fully deterministic schedule of
 * FaultEvents for a given fleet size and horizon — all randomness comes
 * from the explicit fault seed, so a chaos run is replayable
 * bit-for-bit independent of thread count.
 *
 * The CLI's --fault-plan flag parses a compact spec (parseFaultPlan):
 *
 *   kill:<dev>@<ms>            fail-stop death of device <dev> at <ms>
 *   revive:<dev>@<ms>          revival of device <dev> at <ms>
 *   slow:<dev>@<t0>-<t1>x<f>   <dev> serves f-times slower in [t0, t1)
 *   transient:<p>              per-attempt transient failure probability
 *   corrupt:<dev>@<ms>         flip bits in one resident KV page of
 *                              <dev> at <ms> (generation engine only)
 *   drain:<dev>@<ms>           graceful drain of <dev> at <ms>: the
 *                              in-flight step completes, residents
 *                              live-migrate (generation engine only)
 *   mtbf:<mtbf_ms>x<repair_ms> random fail-stop: exponential MTBF with
 *                              fixed repair time (per device)
 *
 * tokens separated by commas, e.g. "kill:0@500,revive:0@900,transient:0.01".
 *
 * Same-timestamp events on the same device resolve by FaultKind enum
 * order, never by input order (see FaultInjector): kill < revive <
 * slow-start < slow-end < corrupt < drain. So "kill:0@500,drain:0@500"
 * kills first (the harsher fault wins; the drain is then a no-op on a
 * dead device), "revive:0@500,drain:0@500" revives first and then
 * drains (maintenance wins), and "corrupt:2@45,drain:2@45" poisons the
 * page first so the drain's migration catches it on arrival.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace dota {

/** What happens to a device at one point of the fault schedule. */
enum class FaultKind
{
    // Enum order doubles as the same-timestamp tie-break: events at one
    // instant on one device apply in this order, regardless of the
    // order the plan spelled them in.
    Kill,       ///< fail-stop: device dies, in-flight work is lost
    Revive,     ///< device returns to service
    SlowStart,  ///< straggler interval begins (factor-times slower)
    SlowEnd,    ///< straggler interval ends
    Corrupt,    ///< memory fault: bits flip in one resident KV page
    Drain,      ///< planned maintenance: finish the step, migrate out
};

/** Display name, e.g. "kill". */
std::string faultKindName(FaultKind kind);

/** One scheduled fault. */
struct FaultEvent
{
    double t_ms = 0.0;
    size_t device = 0;
    FaultKind kind = FaultKind::Kill;
    /** Service-time multiplier for SlowStart (> 1 = slower). */
    double factor = 1.0;
};

/** Declarative description of a chaos experiment. */
struct FaultPlan
{
    /** Explicit schedule (any order; the injector sorts it). */
    std::vector<FaultEvent> events;

    /** Per-attempt transient-failure probability in [0, 1]. */
    double transient_prob = 0.0;

    /**
     * When > 0, every device additionally suffers random fail-stop
     * faults: time-to-failure ~ Exponential(mtbf_ms), fixed
     * repair_ms downtime, repeated over the horizon.
     */
    double mtbf_ms = 0.0;
    double repair_ms = 0.0;
};

/** Outcome of tryParseFaultPlan: a plan or a diagnostic. */
struct FaultPlanParse
{
    FaultPlan plan;
    bool ok = true;
    /** Human-readable diagnostic naming the offending token when !ok. */
    std::string error;
};

/**
 * Parse the --fault-plan spec described above. Malformed input never
 * terminates the process: the result carries ok = false and a
 * diagnostic that names the bad token and what was expected.
 */
FaultPlanParse tryParseFaultPlan(const std::string &spec);

/** Parse the --fault-plan spec described above; fatal() on bad syntax. */
FaultPlan parseFaultPlan(const std::string &spec);

/** One-paragraph help text describing the --fault-plan grammar. */
std::string faultPlanGrammar();

/** Render @p plan back into the --fault-plan spec grammar. */
std::string describeFaultPlan(const FaultPlan &plan);

/**
 * Materialized fault schedule for one run: explicit events validated
 * against the fleet size plus random fail-stop events expanded from the
 * seed. Construction does all random draws, so the schedule is fixed
 * before the event loop starts.
 */
class FaultInjector
{
  public:
    /**
     * @param plan        the chaos description
     * @param n_devices   fleet size (events must target [0, n))
     * @param horizon_ms  random faults are generated up to this time
     * @param seed        fault seed for the random draws
     */
    FaultInjector(const FaultPlan &plan, size_t n_devices,
                  double horizon_ms, uint64_t seed);

    /**
     * Events sorted by (time, device, kind, factor) with a stable sort,
     * so same-timestamp events on one device apply in FaultKind enum
     * order and exact duplicates keep their plan order — the schedule
     * is a pure function of the plan, never of token order.
     */
    const std::vector<FaultEvent> &schedule() const { return events_; }

    /** Draw one transient-failure decision from @p rng. */
    bool
    drawTransient(Rng &rng) const
    {
        return transient_prob_ > 0.0 && rng.bernoulli(transient_prob_);
    }

  private:
    std::vector<FaultEvent> events_;
    double transient_prob_ = 0.0;
};

} // namespace dota
