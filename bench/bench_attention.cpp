/**
 * @file
 * Attention benchmark: wall time and peak RSS of one head on the sparse
 * path (the row kernel of tensor/rows_attention.hpp over the workload's
 * mask) and on the dense path (full n x n scores, no mask) as the
 * sequence length grows, on the long-retrieval workload (DESIGN.md §13).
 * Emits BENCH_attention.json next to the binary.
 *
 * The headline claim measured here: the row kernel holds one score row
 * per thread, so a 32k-token prefill fits where the dense path would
 * need a 4 GiB score matrix. Peak RSS (getrusage RU_MAXRSS) is a
 * process-lifetime high-water mark, so rows record the mark *after*
 * each run and the schedule runs sparse before dense at every length —
 * the sparse rows are unpolluted by dense allocations at larger n.
 *
 * `--smoke` runs ONLY the sparse path at 32k (no dense run ever happens
 * in the process, keeping the high-water mark meaningful), checks the
 * output is finite, the planted-needle recall is ~1, and peak RSS stays
 * under a pinned budget (default 512 MiB, --rss-budget-mb overrides).
 * Exit 0/1 — the CI long-context gate.
 */
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "tensor/ops.hpp"
#include "tensor/rows_attention.hpp"
#include "workloads/long_retrieval.hpp"

using namespace dota;

namespace {

/** Process peak RSS in KiB (Linux RU_MAXRSS unit). */
long
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

struct RunRow
{
    size_t n = 0;
    std::string backend;
    double ms = 0.0;
    double recall = 0.0;
    long rss_peak_kb = 0;
    uint64_t mask_nnz = 0;
};

/** The sparse path: the row kernel over the workload's mask. */
Matrix
sparseHead(const LongRetrievalCase &c)
{
    return rowsAttention(c.q, c.k, c.v, &c.mask, false, c.scale);
}

/** The dense reference: full n x n scores, softmax, A*V, no mask. */
Matrix
denseHead(const LongRetrievalCase &c)
{
    return matmul(rowSoftmax(scale(matmulBT(c.q, c.k), c.scale)), c.v);
}

RunRow
runOne(const LongRetrievalCase &c, bool sparse)
{
    const auto t0 = std::chrono::steady_clock::now();
    const Matrix z = sparse ? sparseHead(c) : denseHead(c);
    const auto t1 = std::chrono::steady_clock::now();

    RunRow row;
    row.n = c.q.rows();
    row.backend = sparse ? "sparse" : "dense";
    row.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    row.recall = needleRecall(c, z);
    row.rss_peak_kb = peakRssKb();
    row.mask_nnz = sparse ? c.mask.nnz() : 0;
    return row;
}

bool
allFinite(const Matrix &m)
{
    for (size_t i = 0; i < m.size(); ++i)
        if (!std::isfinite(m.data()[i]))
            return false;
    return true;
}

int
smoke(size_t rss_budget_mb)
{
    // Sparse only: any dense run would push the high-water mark past
    // the budget for reasons unrelated to the row kernel.
    LongRetrievalConfig cfg;
    cfg.seq_len = 32768;
    const LongRetrievalCase c = makeLongRetrieval(cfg);

    const auto t0 = std::chrono::steady_clock::now();
    const Matrix z = sparseHead(c);
    const auto t1 = std::chrono::steady_clock::now();

    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double recall = needleRecall(c, z);
    const long rss_kb = peakRssKb();
    const bool finite = allFinite(z);
    const bool rss_ok =
        static_cast<size_t>(rss_kb) <= rss_budget_mb * 1024;
    const bool recall_ok = recall >= 0.9;

    std::cout << "sparse 32k smoke: " << ms << " ms, recall "
              << recall << ", peak RSS " << rss_kb / 1024 << " MiB"
              << " (budget " << rss_budget_mb << " MiB)\n";
    if (!finite)
        std::cout << "FAIL: non-finite attention output\n";
    if (!recall_ok)
        std::cout << "FAIL: needle recall below 0.9\n";
    if (!rss_ok)
        std::cout << "FAIL: peak RSS over budget — the row kernel's "
                     "score memory is no longer one row per thread\n";
    const bool ok = finite && recall_ok && rss_ok;
    std::cout << (ok ? "SMOKE PASS\n" : "SMOKE FAIL\n");
    return ok ? 0 : 1;
}

void
writeJson(const std::vector<RunRow> &rows, const std::string &path)
{
    std::ofstream out(path);
    out << "{\n  \"bench\": \"attention_backends\",\n"
        << "  \"rss_note\": \"rss_peak_kb is the process high-water "
           "mark after the run; sparse runs before dense at each "
           "n\",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const RunRow &r = rows[i];
        out << "    {\"n\": " << r.n << ", \"backend\": \"" << r.backend
            << "\", \"ms\": " << r.ms << ", \"recall\": " << r.recall
            << ", \"rss_peak_kb\": " << r.rss_peak_kb
            << ", \"mask_nnz\": " << r.mask_nnz << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    size_t rss_budget_mb = 512;
    bool want_smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            want_smoke = true;
        } else if (std::strcmp(argv[i], "--rss-budget-mb") == 0 &&
                   i + 1 < argc) {
            rss_budget_mb = static_cast<size_t>(std::stoul(argv[++i]));
        } else {
            std::cerr << "usage: bench_attention [--smoke] "
                         "[--rss-budget-mb N]\n";
            return 2;
        }
    }
    if (want_smoke)
        return smoke(rss_budget_mb);

    bench::banner("Attention paths: time and peak RSS vs context",
                  "DESIGN.md §13 (exact row kernel, one score row per "
                  "thread)");

    const std::vector<size_t> lens =
        bench::fastMode() ? std::vector<size_t>{1024, 4096}
                          : std::vector<size_t>{1024, 2048, 4096, 8192};
    std::vector<RunRow> rows;
    Table t("per-path attention forward (single head, d=64)");
    t.header({"n", "backend", "ms", "recall", "peak RSS MiB",
              "mask nnz"});
    auto add = [&](const RunRow &r) {
        rows.push_back(r);
        t.addRow({fmtNum(static_cast<double>(r.n), 0), r.backend,
                  fmtNum(r.ms, 2), fmtNum(r.recall, 3),
                  fmtNum(static_cast<double>(r.rss_peak_kb) / 1024.0, 1),
                  fmtNum(static_cast<double>(r.mask_nnz), 0)});
    };

    for (size_t n : lens) {
        LongRetrievalConfig cfg;
        cfg.seq_len = n;
        const LongRetrievalCase c = makeLongRetrieval(cfg);
        // Sparse first so its RSS row predates dense allocations.
        add(runOne(c, true));
        add(runOne(c, false));
    }
    {
        // Long-context row: sparse only (dense would need a 4 GiB score
        // matrix at 32k — that is the point of this bench).
        LongRetrievalConfig cfg;
        cfg.seq_len = bench::fastMode() ? 16384 : 32768;
        const LongRetrievalCase c = makeLongRetrieval(cfg);
        add(runOne(c, true));
    }
    t.print(std::cout);

    const std::string path = "BENCH_attention.json";
    writeJson(rows, path);
    std::cout << "\nwrote " << path << "\n";
    return 0;
}
