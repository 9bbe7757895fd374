/**
 * @file
 * Property tests of the paged KV-cache allocator (serve/kv_cache.hpp):
 * conservation (no page leaked or double-freed across randomized
 * create/append/shrink/free interleavings), page-table correctness
 * against a naive flat reference, the admission-control byte budget,
 * and the deterministic lowest-free-page-first allocation order that
 * the engine's bit-identity contract rests on.
 */
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "serve/kv_cache.hpp"
#include "serve_test_util.hpp"

namespace dota {
namespace {

KvCacheConfig
tinyArena(size_t pages = 32, size_t page_tokens = 8)
{
    KvCacheConfig cfg;
    cfg.page_tokens = page_tokens;
    cfg.bytes_per_token = 64;
    cfg.budget_bytes = pages * page_tokens * cfg.bytes_per_token;
    return cfg;
}

// ------------------------------------------------------------- geometry

TEST(KvCache, GeometryAndFeasibility)
{
    PagedKvAllocator a(tinyArena(32, 8));
    EXPECT_EQ(a.totalPages(), 32u);
    EXPECT_EQ(a.freePages(), 32u);
    EXPECT_EQ(a.usedPages(), 0u);
    EXPECT_EQ(a.pageBytes(), 8u * 64u);
    EXPECT_EQ(a.pagesFor(0), 0u);
    EXPECT_EQ(a.pagesFor(1), 1u);
    EXPECT_EQ(a.pagesFor(8), 1u);
    EXPECT_EQ(a.pagesFor(9), 2u);
    EXPECT_TRUE(a.feasible(32 * 8));
    EXPECT_FALSE(a.feasible(32 * 8 + 1));
}

TEST(KvCache, BudgetHoldingNoPageIsFatal)
{
    KvCacheConfig cfg = tinyArena(1, 8);
    --cfg.budget_bytes; // one byte short of a page
    EXPECT_DEATH(PagedKvAllocator{cfg}, "holds no page");
    // 2^58 tokens x 64 B wraps the page's byte size to 0.
    cfg = tinyArena();
    cfg.page_tokens = size_t{1} << 58;
    EXPECT_DEATH(PagedKvAllocator{cfg}, "holds no page");
}

TEST(KvCache, LowestFreePageAllocatedFirst)
{
    PagedKvAllocator a(tinyArena(8, 4));
    ASSERT_TRUE(a.createSeq(1));
    ASSERT_TRUE(a.createSeq(2));
    ASSERT_TRUE(a.appendTokens(1, 8));  // pages 0, 1
    ASSERT_TRUE(a.appendTokens(2, 4));  // page 2
    EXPECT_EQ(a.pageTable(1), (std::vector<uint32_t>{0, 1}));
    EXPECT_EQ(a.pageTable(2), (std::vector<uint32_t>{2}));
    // Free the middle sequence: its page returns to the free list and
    // the next allocation must take it (lowest id first), not page 3.
    a.freeSeq(1);
    ASSERT_TRUE(a.createSeq(3));
    ASSERT_TRUE(a.appendTokens(3, 12)); // pages 0, 1, 3
    EXPECT_EQ(a.pageTable(3), (std::vector<uint32_t>{0, 1, 3}));
}

// --------------------------------------------------------- conservation

/**
 * Randomized create/append/shrink/free interleaving against a naive
 * reference model. Invariants checked at every operation: free + used
 * pages always equals the arena total (no leak), page tables never
 * share a page (no double allocation), releasing is always accepted
 * (no double free — the allocator DOTA_ASSERTs internally), and the
 * byte budget is never exceeded.
 */
TEST(KvCache, RandomizedInterleavingsConservePages)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        PagedKvAllocator a(tinyArena(24, 4));
        Rng rng(test::deriveSeed(0xcafe, seed));
        std::map<uint64_t, size_t> ref; // seq -> token count
        uint64_t next_id = 0;
        for (size_t op = 0; op < 400; ++op) {
            const double u = rng.uniform();
            if (u < 0.35 || ref.empty()) {
                const uint64_t id = next_id++;
                ASSERT_TRUE(a.createSeq(id));
                ref[id] = 0;
            } else {
                // Pick an existing sequence deterministically.
                auto it = ref.begin();
                std::advance(it, rng.uniformInt(ref.size()));
                const uint64_t id = it->first;
                if (u < 0.70) {
                    const size_t grow = 1 + rng.uniformInt(10);
                    const bool fits =
                        a.pagesFor(it->second + grow) -
                            a.pagesFor(it->second) <=
                        a.freePages();
                    EXPECT_EQ(a.appendTokens(id, grow), fits);
                    if (fits)
                        it->second += grow;
                    else // all-or-nothing: length unchanged on failure
                        EXPECT_EQ(a.seqTokens(id), it->second);
                } else if (u < 0.85 && it->second > 0) {
                    const size_t keep = 1 + rng.uniformInt(it->second);
                    a.shrinkTo(id, keep);
                    it->second = std::min(it->second, keep);
                } else {
                    a.freeSeq(id);
                    ref.erase(it);
                }
            }
            // Conservation + budget after every operation.
            ASSERT_EQ(a.freePages() + a.usedPages(), a.totalPages());
            ASSERT_LE(a.usedBytes(), a.budgetBytes());
            size_t expect_pages = 0;
            std::vector<bool> owned(a.totalPages(), false);
            for (const auto &[id, tokens] : ref) {
                ASSERT_EQ(a.seqTokens(id), tokens);
                ASSERT_EQ(a.pageTable(id).size(), a.pagesFor(tokens));
                expect_pages += a.pagesFor(tokens);
                for (uint32_t p : a.pageTable(id)) {
                    ASSERT_LT(p, a.totalPages());
                    ASSERT_FALSE(owned[p]) << "page " << p
                                           << " doubly allocated";
                    owned[p] = true;
                }
            }
            ASSERT_EQ(a.usedPages(), expect_pages);
        }
    }
}

// ----------------------------------------------------------- page table

TEST(KvCache, LookupMatchesNaiveFlatReference)
{
    PagedKvAllocator a(tinyArena(64, 8));
    ASSERT_TRUE(a.createSeq(7));
    ASSERT_TRUE(a.appendTokens(7, 3));
    ASSERT_TRUE(a.appendTokens(7, 20)); // grows across page boundaries
    ASSERT_TRUE(a.appendTokens(7, 1));
    const std::vector<uint32_t> &table = a.pageTable(7);
    for (size_t i = 0; i < a.seqTokens(7); ++i) {
        // Naive flat reference: token i lives at slot i of a dense
        // array chunked into pages of page_tokens slots.
        const auto [page, slot] = a.lookup(7, i);
        EXPECT_EQ(page, table[i / a.pageTokens()]);
        EXPECT_EQ(slot, i % a.pageTokens());
    }
}

TEST(KvCache, ShrinkFreesWholeTrailingPagesOnly)
{
    PagedKvAllocator a(tinyArena(16, 8));
    ASSERT_TRUE(a.createSeq(1));
    ASSERT_TRUE(a.appendTokens(1, 30)); // 4 pages (8+8+8+6)
    EXPECT_EQ(a.usedPages(), 4u);
    // Keep 17 tokens -> 3 pages (the third holds one token).
    EXPECT_EQ(a.shrinkTo(1, 17), 1u);
    EXPECT_EQ(a.seqTokens(1), 17u);
    EXPECT_EQ(a.usedPages(), 3u);
    // No-op when keeping at least the current length.
    EXPECT_EQ(a.shrinkTo(1, 17), 0u);
    EXPECT_EQ(a.shrinkTo(1, 100), 0u);
    // Growth after a shrink reuses the freed (lowest) page.
    ASSERT_TRUE(a.appendTokens(1, 8));
    EXPECT_EQ(a.seqTokens(1), 25u);
    EXPECT_EQ(a.usedPages(), 4u);
}

// ------------------------------------------------------------ admission

TEST(KvCache, AdmissionNeverExceedsBudget)
{
    PagedKvAllocator a(tinyArena(4, 4)); // 16 token slots total
    ASSERT_TRUE(a.createSeq(1));
    EXPECT_TRUE(a.canFit(16));
    EXPECT_FALSE(a.canFit(17));
    ASSERT_TRUE(a.appendTokens(1, 13)); // 4 pages (13 -> 3.25)
    EXPECT_EQ(a.usedPages(), 4u);
    EXPECT_FALSE(a.canFit(4)); // only 3 slack slots, all pages taken
    // canFit is a fresh-allocation check, but in-page growth of an
    // existing sequence needs no new page and still succeeds.
    EXPECT_FALSE(a.canFit(3));
    ASSERT_TRUE(a.appendTokens(1, 3));
    EXPECT_FALSE(a.canFit(1));
    EXPECT_FALSE(a.appendTokens(1, 1));
    EXPECT_EQ(a.usedBytes(), a.budgetBytes());
}

TEST(KvCache, DeterministicOomPoint)
{
    // Two identical operation sequences hit OOM at exactly the same
    // operation with identical page tables — the property the engine's
    // deterministic preemption order is built on.
    auto run = [] {
        PagedKvAllocator a(tinyArena(6, 4));
        std::vector<size_t> history;
        for (uint64_t id = 0; id < 10; ++id) {
            a.createSeq(id);
            if (!a.appendTokens(id, 5)) {
                history.push_back(id);
                a.freeSeq(id);
            } else {
                history.push_back(1000 + a.pageTable(id).front());
            }
        }
        return history;
    };
    EXPECT_EQ(run(), run());
}

TEST(KvCache, PeakTracksHighWaterMark)
{
    PagedKvAllocator a(tinyArena(16, 4));
    ASSERT_TRUE(a.createSeq(1));
    ASSERT_TRUE(a.appendTokens(1, 40)); // 10 pages
    EXPECT_EQ(a.peakUsedPages(), 10u);
    a.shrinkTo(1, 4);
    EXPECT_EQ(a.usedPages(), 1u);
    EXPECT_EQ(a.peakUsedPages(), 10u); // peak survives the shrink
    EXPECT_EQ(a.peakUsedBytes(), 10u * a.pageBytes());
}

// ------------------------------------------- live migration (DESIGN §15)

TEST(KvCacheMigration, ExportImportRoundTrip)
{
    PagedKvAllocator src(tinyArena(8, 4));
    PagedKvAllocator dst(tinyArena(8, 4));
    ASSERT_TRUE(src.createSeq(7));
    ASSERT_TRUE(src.appendTokens(7, 11)); // 3 pages

    const KvSeqExport exp = src.exportSeq(7);
    EXPECT_EQ(exp.seq_id, 7u);
    EXPECT_EQ(exp.tokens, 11u);
    EXPECT_EQ(exp.pages.size(), 3u);
    EXPECT_EQ(PagedKvAllocator::verifyExport(exp), 0u);
    // Pure read: the source copy is untouched until torn down.
    EXPECT_TRUE(src.contains(7));
    EXPECT_EQ(src.verifySeq(7), 0u);

    ASSERT_TRUE(dst.importSeq(exp));
    EXPECT_EQ(dst.seqTokens(7), 11u);
    EXPECT_EQ(dst.usedPages(), 3u);
    EXPECT_EQ(dst.verifySeq(7), 0u); // seals travelled verbatim
    ASSERT_TRUE(dst.appendTokens(7, 2)); // decode continues
    EXPECT_EQ(dst.seqTokens(7), 13u);
    EXPECT_EQ(dst.verifySeq(7), 0u);
}

TEST(KvCacheMigration, ImportRefusesResidentCapacityAndPoison)
{
    PagedKvAllocator src(tinyArena(8, 4));
    ASSERT_TRUE(src.createSeq(1));
    ASSERT_TRUE(src.appendTokens(1, 10)); // 3 pages
    const KvSeqExport exp = src.exportSeq(1);

    // Already-resident id: refused, arena untouched.
    PagedKvAllocator busy(tinyArena(8, 4));
    ASSERT_TRUE(busy.createSeq(1));
    EXPECT_FALSE(busy.importSeq(exp));
    EXPECT_EQ(busy.usedPages(), 0u);

    // Capacity short by one page: all-or-nothing, nothing allocated.
    PagedKvAllocator small(tinyArena(2, 4));
    EXPECT_FALSE(small.importSeq(exp));
    EXPECT_EQ(small.usedPages(), 0u);
    EXPECT_EQ(small.freePages(), 2u);

    // Poisoned in transit: the whole sequence is refused.
    src.corruptPage(src.pageTable(1)[1], KvCorruption::BitFlip);
    const KvSeqExport bad = src.exportSeq(1);
    EXPECT_EQ(PagedKvAllocator::verifyExport(bad), 1u);
    PagedKvAllocator dst(tinyArena(8, 4));
    EXPECT_FALSE(dst.importSeq(bad));
    EXPECT_EQ(dst.usedPages(), 0u);
    EXPECT_EQ(dst.freePages(), 8u);
}

TEST(KvCacheMigration, ChurnNeverFragmentsAllOrNothingAdmission)
{
    // Property: after any number of export/import/free/shrink cycles,
    // an arena admits exactly what a fresh arena of equal effective
    // capacity admits — paging means churn can never strand free pages
    // in unusable holes, so migration admission stays all-or-nothing
    // arithmetic forever.
    const size_t kPages = 24, kPageTokens = 4;
    PagedKvAllocator a(tinyArena(kPages, kPageTokens));
    PagedKvAllocator b(tinyArena(kPages, kPageTokens));
    Rng rng(17);
    uint64_t next_id = 0;
    std::vector<std::pair<PagedKvAllocator *, uint64_t>> live;

    for (size_t step = 0; step < 400; ++step) {
        const uint64_t op = rng.uniformInt(4);
        if (op == 0) { // admit a fresh sequence on a
            const size_t toks = 1 + rng.uniformInt(20);
            if (a.canFit(toks)) {
                const uint64_t id = next_id++;
                ASSERT_TRUE(a.createSeq(id));
                ASSERT_TRUE(a.appendTokens(id, toks));
                live.push_back({&a, id});
            }
        } else if (op == 1 && !live.empty()) { // migrate a <-> b
            const size_t pick = rng.uniformInt(live.size());
            auto [from, id] = live[pick];
            PagedKvAllocator *to = from == &a ? &b : &a;
            const KvSeqExport exp = from->exportSeq(id);
            if (to->importSeq(exp)) {
                from->freeSeq(id);
                live[pick].first = to;
            }
        } else if (op == 2 && !live.empty()) { // finish a sequence
            const size_t pick = rng.uniformInt(live.size());
            live[pick].first->freeSeq(live[pick].second);
            live.erase(live.begin() +
                       static_cast<ptrdiff_t>(pick));
        } else if (op == 3 && !live.empty()) { // DOTA eviction
            const size_t pick = rng.uniformInt(live.size());
            auto [arena, id] = live[pick];
            const size_t keep =
                1 + arena->seqTokens(id) / 2;
            arena->shrinkTo(id, keep);
        }

        for (PagedKvAllocator *arena : {&a, &b}) {
            // Conservation: free + used + quarantined == total.
            EXPECT_EQ(arena->freePages() + arena->usedPages() +
                          arena->quarantinedPages(),
                      arena->totalPages());
            // No fragmentation: admission matches a freshly built
            // arena holding exactly this many free pages, at every
            // demand size around the boundary — churn never strands
            // free capacity in unusable holes.
            if (arena->freePages() > 0) {
                const PagedKvAllocator fresh(
                    tinyArena(arena->freePages(), kPageTokens));
                for (size_t toks :
                     {size_t(1), size_t(kPageTokens),
                      arena->freePages() * kPageTokens,
                      arena->freePages() * kPageTokens + 1}) {
                    EXPECT_EQ(arena->canFit(toks), fresh.canFit(toks))
                        << "step " << step << " toks " << toks;
                }
            }
            // Every resident still seals clean (exports are verbatim).
            for (uint32_t page : arena->usedPageList())
                EXPECT_TRUE(arena->verifyPage(page));
        }
    }
}

} // namespace
} // namespace dota
