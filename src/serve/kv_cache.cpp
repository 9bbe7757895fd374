/**
 * @file
 * Paged KV-cache allocator implementation.
 */
#include "serve/kv_cache.hpp"

#include "common/crc32.hpp"
#include "common/logging.hpp"

namespace dota {

std::string
kvCorruptionName(KvCorruption mode)
{
    switch (mode) {
      case KvCorruption::BitFlip:
        return "bit-flip";
      case KvCorruption::ZeroPage:
        return "zero-page";
      case KvCorruption::TornWrite:
        return "torn-write";
    }
    DOTA_PANIC("unknown KV corruption mode");
}

namespace {

/** SplitMix64 finalizer: spreads the write epoch into a payload. */
uint64_t
mixPayload(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

uint32_t
sealOf(uint64_t payload)
{
    return crc32(&payload, sizeof payload);
}

} // namespace

PagedKvAllocator::PagedKvAllocator(KvCacheConfig cfg) : cfg_(cfg)
{
    DOTA_ASSERT(cfg_.page_tokens >= 1, "page needs at least one token");
    DOTA_ASSERT(cfg_.bytes_per_token >= 1,
                "KV bytes per token must be positive");
    // Compared in tokens: pageBytes() may wrap for a huge page.
    DOTA_ASSERT(cfg_.page_tokens <=
                    cfg_.budget_bytes / cfg_.bytes_per_token,
                "KV budget {} B holds no page of {} tokens x {} B",
                cfg_.budget_bytes, cfg_.page_tokens,
                cfg_.bytes_per_token);
    total_pages_ = cfg_.budget_bytes / pageBytes();
    for (size_t p = 0; p < total_pages_; ++p)
        free_.insert(static_cast<uint32_t>(p));
    pages_.resize(total_pages_);
}

void
PagedKvAllocator::stampPage(uint32_t page)
{
    Page &pg = pages_[page];
    pg.payload = mixPayload(++write_epoch_ +
                            (static_cast<uint64_t>(page) << 40));
    pg.seal = sealOf(pg.payload);
}

bool
PagedKvAllocator::canFit(size_t tokens) const
{
    return pagesFor(tokens) <= free_.size();
}

bool
PagedKvAllocator::createSeq(uint64_t seq_id)
{
    return seqs_.emplace(seq_id, Seq{}).second;
}

uint32_t
PagedKvAllocator::allocPage()
{
    DOTA_ASSERT(!free_.empty(), "allocPage on an exhausted arena");
    const uint32_t page = *free_.begin(); // lowest id: deterministic
    free_.erase(free_.begin());
    return page;
}

void
PagedKvAllocator::releasePage(uint32_t page)
{
    const bool inserted = free_.insert(page).second;
    DOTA_ASSERT(inserted, "double free of KV page {}", page);
}

void
PagedKvAllocator::notePeak()
{
    peak_used_pages_ = std::max(peak_used_pages_, usedPages());
}

bool
PagedKvAllocator::appendTokens(uint64_t seq_id, size_t tokens)
{
    auto it = seqs_.find(seq_id);
    DOTA_ASSERT(it != seqs_.end(), "appendTokens: unknown sequence {}",
                seq_id);
    Seq &seq = it->second;
    const size_t want = pagesFor(seq.tokens + tokens);
    DOTA_ASSERT(want >= seq.pages.size(),
                "page table longer than its token count needs");
    const size_t grow = want - seq.pages.size();
    if (grow > free_.size())
        return false; // all-or-nothing: nothing allocated on OOM
    // The former last page takes new token slots too: its contents
    // change, so it is re-stamped and re-sealed like the fresh pages.
    if (tokens > 0 && !seq.pages.empty() &&
        seq.tokens % cfg_.page_tokens != 0)
        stampPage(seq.pages.back());
    for (size_t p = 0; p < grow; ++p) {
        seq.pages.push_back(allocPage());
        stampPage(seq.pages.back());
    }
    seq.tokens += tokens;
    notePeak();
    return true;
}

size_t
PagedKvAllocator::shrinkTo(uint64_t seq_id, size_t tokens)
{
    auto it = seqs_.find(seq_id);
    DOTA_ASSERT(it != seqs_.end(), "shrinkTo: unknown sequence {}",
                seq_id);
    Seq &seq = it->second;
    if (tokens >= seq.tokens)
        return 0;
    const size_t keep_pages = pagesFor(tokens);
    size_t freed = 0;
    while (seq.pages.size() > keep_pages) {
        releasePage(seq.pages.back());
        seq.pages.pop_back();
        ++freed;
    }
    seq.tokens = tokens;
    // Eviction compacts the survivors to the prefix — every surviving
    // page is rewritten, so each gets a fresh stamp and seal.
    for (uint32_t page : seq.pages)
        stampPage(page);
    return freed;
}

void
PagedKvAllocator::freeSeq(uint64_t seq_id)
{
    auto it = seqs_.find(seq_id);
    DOTA_ASSERT(it != seqs_.end(), "freeSeq: unknown sequence {}",
                seq_id);
    for (uint32_t page : it->second.pages)
        releasePage(page);
    seqs_.erase(it);
}

size_t
PagedKvAllocator::seqTokens(uint64_t seq_id) const
{
    auto it = seqs_.find(seq_id);
    DOTA_ASSERT(it != seqs_.end(), "seqTokens: unknown sequence {}",
                seq_id);
    return it->second.tokens;
}

const std::vector<uint32_t> &
PagedKvAllocator::pageTable(uint64_t seq_id) const
{
    auto it = seqs_.find(seq_id);
    DOTA_ASSERT(it != seqs_.end(), "pageTable: unknown sequence {}",
                seq_id);
    return it->second.pages;
}

std::pair<uint32_t, uint32_t>
PagedKvAllocator::lookup(uint64_t seq_id, size_t index) const
{
    auto it = seqs_.find(seq_id);
    DOTA_ASSERT(it != seqs_.end(), "lookup: unknown sequence {}",
                seq_id);
    DOTA_ASSERT(index < it->second.tokens,
                "lookup index {} past sequence length {}", index,
                it->second.tokens);
    return {it->second.pages[index / cfg_.page_tokens],
            static_cast<uint32_t>(index % cfg_.page_tokens)};
}

std::vector<uint32_t>
PagedKvAllocator::usedPageList() const
{
    std::vector<uint32_t> used;
    used.reserve(usedPages());
    for (size_t p = 0; p < total_pages_; ++p) {
        const uint32_t page = static_cast<uint32_t>(p);
        if (free_.count(page) == 0 && quarantined_.count(page) == 0)
            used.push_back(page);
    }
    return used;
}

void
PagedKvAllocator::corruptPage(uint32_t page, KvCorruption mode)
{
    DOTA_ASSERT(page < total_pages_, "corruptPage: page {} out of "
                "range",
                page);
    DOTA_ASSERT(free_.count(page) == 0 && quarantined_.count(page) == 0,
                "corruptPage: page {} is not in use", page);
    Page &pg = pages_[page];
    switch (mode) {
      case KvCorruption::BitFlip:
        // CRC32 detects every single-bit error by construction.
        pg.payload ^= 1ull << (page % 64);
        break;
      case KvCorruption::ZeroPage:
        pg.payload = 0;
        break;
      case KvCorruption::TornWrite:
        // New data landed but the seal write never completed.
        pg.payload = mixPayload(pg.payload);
        break;
    }
    // ZeroPage/TornWrite replace the payload wholesale; guard the
    // astronomically unlikely (but deterministic) CRC collision so
    // "corrupted implies detected" is an invariant, not a probability.
    while (sealOf(pg.payload) == pg.seal)
        pg.payload ^= 1;
}

bool
PagedKvAllocator::verifyPage(uint32_t page) const
{
    DOTA_ASSERT(page < total_pages_, "verifyPage: page {} out of "
                "range",
                page);
    const Page &pg = pages_[page];
    return sealOf(pg.payload) == pg.seal;
}

size_t
PagedKvAllocator::verifySeq(uint64_t seq_id) const
{
    auto it = seqs_.find(seq_id);
    DOTA_ASSERT(it != seqs_.end(), "verifySeq: unknown sequence {}",
                seq_id);
    size_t corrupt = 0;
    for (uint32_t page : it->second.pages)
        if (!verifyPage(page))
            ++corrupt;
    return corrupt;
}

KvSeqExport
PagedKvAllocator::exportSeq(uint64_t seq_id) const
{
    auto it = seqs_.find(seq_id);
    DOTA_ASSERT(it != seqs_.end(), "exportSeq: unknown sequence {}",
                seq_id);
    KvSeqExport exp;
    exp.seq_id = seq_id;
    exp.tokens = it->second.tokens;
    exp.pages.reserve(it->second.pages.size());
    for (uint32_t page : it->second.pages) {
        const Page &pg = pages_[page];
        exp.pages.push_back({pg.payload, pg.seal});
    }
    return exp;
}

size_t
PagedKvAllocator::verifyExport(const KvSeqExport &exp)
{
    size_t corrupt = 0;
    for (const KvPageImage &img : exp.pages)
        if (sealOf(img.payload) != img.seal)
            ++corrupt;
    return corrupt;
}

bool
PagedKvAllocator::importSeq(const KvSeqExport &exp)
{
    DOTA_ASSERT(exp.pages.size() == pagesFor(exp.tokens),
                "importSeq: {} pages cannot back {} tokens at {} "
                "tokens/page",
                exp.pages.size(), exp.tokens, cfg_.page_tokens);
    if (seqs_.count(exp.seq_id) != 0)
        return false;
    if (exp.pages.size() > free_.size())
        return false; // all-or-nothing: nothing allocated
    if (verifyExport(exp) != 0)
        return false; // poisoned in transit: refuse the whole sequence
    Seq seq;
    seq.tokens = exp.tokens;
    seq.pages.reserve(exp.pages.size());
    for (const KvPageImage &img : exp.pages) {
        const uint32_t page = allocPage();
        pages_[page].payload = img.payload;
        pages_[page].seal = img.seal;
        seq.pages.push_back(page);
    }
    seqs_.emplace(exp.seq_id, std::move(seq));
    notePeak();
    return true;
}

size_t
PagedKvAllocator::quarantineSeq(uint64_t seq_id)
{
    auto it = seqs_.find(seq_id);
    DOTA_ASSERT(it != seqs_.end(), "quarantineSeq: unknown sequence {}",
                seq_id);
    size_t quarantined = 0;
    for (uint32_t page : it->second.pages) {
        if (verifyPage(page)) {
            releasePage(page);
        } else {
            const bool inserted = quarantined_.insert(page).second;
            DOTA_ASSERT(inserted, "page {} quarantined twice", page);
            ++quarantined;
        }
    }
    seqs_.erase(it);
    return quarantined;
}

} // namespace dota
