/**
 * @file
 * Implementation of the three scheduling policies.
 */
#include "sched/scheduler.hpp"

#include <algorithm>
#include <map>

namespace dota {

GroupSchedule
RowByRowScheduler::scheduleGroup(const SparseMask &mask, size_t base) const
{
    GroupSchedule sched;
    sched.base = base;
    sched.parallelism = 1;
    sched.active_rows = base < mask.rows() ? 1 : 0;
    if (!sched.active_rows)
        return sched;
    for (uint32_t key : mask.row(base)) {
        Round r;
        r.issues.push_back({key, 1u});
        sched.rounds.push_back(std::move(r));
    }
    return sched;
}

GroupSchedule
InOrderScheduler::scheduleGroup(const SparseMask &mask, size_t base) const
{
    GroupSchedule sched;
    sched.base = base;
    sched.parallelism = parallelism_;
    const size_t rows =
        base < mask.rows() ? std::min(parallelism_, mask.rows() - base)
                           : 0;
    sched.active_rows = rows;

    size_t max_len = 0;
    for (size_t q = 0; q < rows; ++q)
        max_len = std::max(max_len, mask.row(base + q).size());

    for (size_t step = 0; step < max_len; ++step) {
        Round round;
        // Group queries that need the same key at this position.
        std::map<uint32_t, uint32_t> key_to_mask;
        for (size_t q = 0; q < rows; ++q) {
            const auto &ids = mask.row(base + q);
            if (step < ids.size())
                key_to_mask[ids[step]] |= (1u << q);
        }
        for (const auto &[key, qmask] : key_to_mask)
            round.issues.push_back({key, qmask});
        if (!round.issues.empty())
            sched.rounds.push_back(std::move(round));
    }
    return sched;
}

GroupSchedule
LocalityAwareScheduler::scheduleGroup(const SparseMask &mask,
                                      size_t base) const
{
    GroupSchedule sched;
    sched.base = base;
    sched.parallelism = parallelism_;
    const size_t rows =
        base < mask.rows() ? std::min(parallelism_, mask.rows() - base)
                           : 0;
    sched.active_rows = rows;
    if (rows == 0)
        return sched;

    // The hardware ID buffers of Figure 10: buffer[m] holds the key IDs
    // still required by exactly the query subset m. All keys in one
    // buffer are interchangeable, so the greedy search of Algorithm 1
    // only ever inspects the (2^T - 1) buffers, never individual keys.
    const size_t num_buffers = size_t{1} << rows;
    std::vector<std::vector<uint32_t>> buffers(num_buffers);
    std::vector<size_t> head(num_buffers, 0); // FIFO consume pointer
    {
        // Build owner masks by merging the (sorted) row id lists.
        std::map<uint32_t, uint32_t> owners;
        for (size_t q = 0; q < rows; ++q)
            for (uint32_t key : mask.row(base + q))
                owners[key] |= (1u << q);
        for (const auto &[key, qmask] : owners)
            buffers[qmask].push_back(key);
    }
    std::vector<size_t> remaining(rows, 0);
    for (size_t q = 0; q < rows; ++q)
        remaining[q] = mask.row(base + q).size();

    auto buffer_empty = [&](size_t m) {
        return head[m] >= buffers[m].size();
    };
    auto any_remaining = [&]() {
        for (size_t q = 0; q < rows; ++q)
            if (remaining[q] > 0)
                return true;
        return false;
    };

    while (any_remaining()) {
        // One synchronized round: serve every query with work left
        // exactly once.
        uint32_t uncovered = 0;
        for (size_t q = 0; q < rows; ++q)
            if (remaining[q] > 0)
                uncovered |= (1u << q);

        Round round;
        while (uncovered != 0) {
            // Greedy buffer pick: most uncovered queries served; among
            // ties, fewest already-covered co-owners (don't split shared
            // buffers needlessly).
            size_t best_mask = 0;
            int best_cover = -1;
            int best_spill = 0;
            for (size_t m = 1; m < num_buffers; ++m) {
                if (buffer_empty(m))
                    continue;
                const uint32_t cover_mask =
                    static_cast<uint32_t>(m) & uncovered;
                if (!cover_mask)
                    continue;
                const int cover = __builtin_popcount(cover_mask);
                const int spill = __builtin_popcount(
                    static_cast<uint32_t>(m) & ~uncovered);
                if (cover > best_cover ||
                    (cover == best_cover && spill < best_spill)) {
                    best_mask = m;
                    best_cover = cover;
                    best_spill = spill;
                }
            }
            if (best_mask == 0)
                break; // no key can serve the remaining queries
            const uint32_t key = buffers[best_mask][head[best_mask]++];
            const uint32_t serve =
                static_cast<uint32_t>(best_mask) & uncovered;
            round.issues.push_back({key, serve});
            uncovered &= ~serve;
            for (size_t q = 0; q < rows; ++q)
                if (serve & (1u << q))
                    --remaining[q];
            // Move the ID to the buffer of its remaining owners
            // (B[xxx1] -> B[xxx0] in Algorithm 1), or retire it.
            const uint32_t rest =
                static_cast<uint32_t>(best_mask) & ~serve;
            if (rest)
                buffers[rest].push_back(key);
        }
        DOTA_ASSERT(!round.issues.empty(),
                    "scheduler made no progress with work remaining");
        sched.rounds.push_back(std::move(round));
    }
    return sched;
}

} // namespace dota
