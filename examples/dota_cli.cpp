/**
 * @file
 * Command-line driver for the simulator: run any benchmark on any
 * registered device with configurable fabric/dataflow options, no
 * recompilation needed.
 *
 * Usage:
 *   dota_cli [--benchmark QA|Image|Text|Retrieval|LM]
 *            [--mode full|conservative|aggressive]
 *            [--device <key>|list] [--lanes N] [--parallelism T]
 *            [--dataflow ooo|inorder|rowbyrow|streaming]
 *            [--sigma S] [--bits B] [--overlap] [--generation] [--csv]
 *
 * Every numeric value is checked whole, against the bounds the library
 * asserts (for example --lanes >= 1, --parallelism in [1, 16]); a bad
 * one exits 2 with a one-line error and the usage.
 *
 * Online-serving mode (src/serve/): replay a seeded arrival trace on a
 * fleet of the selected device under an optional fault plan:
 *   dota_cli --serve [--accelerators N] [--arrival-rate R]
 *            [--requests N] [--process poisson|burst|diurnal]
 *            [--arrival-seed S] [--fault-seed S]
 *            [--fault-plan SPEC] [--timeout-ms T] [--retries R]
 *            [--deadline-ms D] [--queue-limit N]
 *
 * Autoregressive generation mode (src/serve/engine.hpp): serve a seeded
 * GenRequest trace with continuous batching over a paged KV cache and
 * DOTA-guided eviction, reporting TTFT/TPOT tails and KV occupancy:
 *   dota_cli --generate [--accelerators N] [--arrival-rate R]
 *            [--requests N] [--arrival-seed S] [--out-min N]
 *            [--out-max N] [--kv-budget-mb M] [--page-tokens N]
 *            [--max-batch N] [--step-tokens N] [--no-evict] [--no-topk]
 *            [--streaming-prefill] [--fault-plan SPEC] [--fault-seed S]
 *            [--watchdog-ms W] [--no-migration] [--migration-page-ms M]
 *            [--probation-steps N] [--probation-seqs N]
 *
 * Crash-safe training mode (src/train/): train a benchmark's tiny proxy
 * model with atomic checksummed checkpoints; kill it at any step and
 * rerun with --resume to continue bit-identically:
 *   dota_cli --train [--benchmark B] [--steps N] [--batch N]
 *            [--train-seed S] [--checkpoint-dir D]
 *            [--checkpoint-every N] [--keep-last N] [--resume]
 *            [--kill-at-step K]
 *
 * Device keys come from DeviceRegistry (`--device list` prints them);
 * the legacy aliases "dota" (mode picked by --mode) and "gpu" are still
 * accepted.
 *
 * Examples:
 *   dota_cli --benchmark Retrieval --mode aggressive
 *   dota_cli --benchmark LM --generation --mode conservative
 *   dota_cli --device gpu-v100 --benchmark Text
 *   dota_cli --device list
 *   dota_cli --serve --arrival-rate 400 --requests 200 \
 *            --fault-plan "kill:0@100,revive:0@400,transient:0.02"
 */
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <type_traits>

#include "common/strutil.hpp"
#include "core/dota.hpp"
#include "sim/trace.hpp"

using namespace dota;

namespace {

struct CliOptions
{
    std::string benchmark = "Text";
    std::string device = "dota";
    std::string precision; ///< empty = fp32 (FX16 datapath)
    DotaMode mode = DotaMode::Conservative;
    size_t lanes = 24;
    bool generation = false;
    bool csv = false;
    bool trace = false;
    SimOptions sim;
    // --serve mode
    bool serve = false;
    size_t accelerators = 4;
    TraceConfig arrivals;
    std::string fault_plan;
    uint64_t fault_seed = 1;
    ServePolicy policy;
    // --generate mode
    bool generate = false;
    size_t out_min = 16;
    size_t out_max = 256;
    BatchPolicy batch;
    KvPolicy kv;
    MigrationPolicy migrate;
    // --train mode
    bool train = false;
    size_t train_steps = 40;
    size_t train_batch = 4;
    uint64_t train_seed = 123;
    CheckpointConfig checkpoint;
    long kill_at_step = -1; ///< std::_Exit mid-step K when >= 0
};

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: dota_cli [--benchmark QA|Image|Text|Retrieval|LM]\n"
        "                [--mode full|conservative|aggressive]\n"
        "                [--device <key>|list] [--lanes N]\n"
        "                [--parallelism T] [--dataflow ooo|inorder|"
        "rowbyrow|streaming]\n"
        "                [--precision fp32|int8|list]\n"
        "                [--sigma S] [--bits 2|4|8] [--overlap]\n"
        "                [--generation] [--trace] [--csv]\n"
        "       dota_cli --serve [--accelerators N] [--arrival-rate R]\n"
        "                [--requests N] [--process poisson|burst|"
        "diurnal]\n"
        "                [--arrival-seed S] [--fault-seed S]\n"
        "                [--fault-plan SPEC] [--timeout-ms T]\n"
        "                [--retries R] [--deadline-ms D] "
        "[--queue-limit N]\n"
        "       dota_cli --generate [--accelerators N] "
        "[--arrival-rate R]\n"
        "                [--requests N] [--arrival-seed S] "
        "[--out-min N]\n"
        "                [--out-max N] [--kv-budget-mb M] "
        "[--page-tokens N]\n"
        "                [--max-batch N] [--step-tokens N] "
        "[--no-evict] [--no-topk]\n"
        "                [--streaming-prefill] [--fault-plan SPEC]\n"
        "                [--fault-seed S] [--watchdog-ms W]\n"
        "                [--no-migration] [--migration-page-ms M]\n"
        "                [--probation-steps N] [--probation-seqs N]\n"
        "       dota_cli --train [--benchmark B] [--steps N] "
        "[--batch N]\n"
        "                [--train-seed S] [--checkpoint-dir D]\n"
        "                [--checkpoint-every N] [--keep-last N]\n"
        "                [--resume] [--kill-at-step K]\n"
        "device keys: " << join(DeviceRegistry::keys(), ", ")
              << " (plus aliases dota, gpu)\n";
    std::exit(2);
}

/**
 * The value @p v of numeric flag @p flag: the whole string parsed as a T
 * (no sign on unsigned counts, no trailing text, nothing non-finite),
 * within the bounds the library asserts: at least @p lo (above it when
 * @p above) and at most @p hi. A bad value exits 2 with a one-line error
 * and the usage.
 */
template <typename T>
T
numberArg(const std::string &flag, const std::string &v, T lo = 0,
          T hi = std::numeric_limits<T>::max(), bool above = false)
{
    T out{};
    const char *end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    // NaN fails every comparison, and infinity the upper bound.
    if (ec == std::errc() && ptr == end && (above ? out > lo : out >= lo) &&
        out <= hi)
        return out;
    std::cerr << "error: " << flag << " takes "
              << (std::is_integral_v<T> ? "a whole number" : "a number");
    if (hi < std::numeric_limits<T>::max())
        std::cerr << " in " << (above ? "(" : "[") << lo << ", " << hi << "]";
    else
        std::cerr << (above ? " > " : " >= ") << lo;
    std::cerr << ", not '" << v << "'\n";
    usage();
}

CliOptions
parse(int argc, char **argv)
{
    CliOptions opt;
    // Value flags accept both "--flag value" and "--flag=value".
    std::string inline_val;
    bool has_inline = false;
    int i = 0;
    auto need = [&](int &i) -> std::string {
        if (has_inline)
            return inline_val;
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            const size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_val = arg.substr(eq + 1);
                arg.erase(eq);
                has_inline = true;
            }
        }
        if (arg == "--benchmark") {
            opt.benchmark = need(i);
        } else if (arg == "--device") {
            opt.device = toLower(need(i));
        } else if (arg == "--precision") {
            opt.precision = toLower(need(i));
        } else if (arg == "--mode") {
            const std::string m = toLower(need(i));
            if (m == "full")
                opt.mode = DotaMode::Full;
            else if (m == "conservative")
                opt.mode = DotaMode::Conservative;
            else if (m == "aggressive")
                opt.mode = DotaMode::Aggressive;
            else
                usage();
        } else if (arg == "--lanes") {
            opt.lanes = numberArg<size_t>(arg, need(i), 1);
        } else if (arg == "--parallelism") {
            opt.sim.token_parallelism =
                numberArg<size_t>(arg, need(i), 1, kMaxTokenParallelism);
        } else if (arg == "--dataflow") {
            const std::string d = toLower(need(i));
            if (d == "ooo")
                opt.sim.dataflow = Dataflow::TokenParallelOoO;
            else if (d == "inorder")
                opt.sim.dataflow = Dataflow::TokenParallelInOrder;
            else if (d == "rowbyrow")
                opt.sim.dataflow = Dataflow::RowByRow;
            else if (d == "streaming")
                opt.sim.dataflow = Dataflow::StreamingTiled;
            else
                usage();
        } else if (arg == "--sigma") {
            opt.sim.detector_sigma = numberArg<double>(arg, need(i));
        } else if (arg == "--bits") {
            opt.sim.detector_bits = numberArg<int>(arg, need(i));
        } else if (arg == "--overlap") {
            opt.sim.overlap_detection = true;
        } else if (arg == "--serve") {
            opt.serve = true;
        } else if (arg == "--accelerators") {
            opt.accelerators = numberArg<size_t>(arg, need(i), 1);
        } else if (arg == "--arrival-rate") {
            opt.arrivals.rate_per_s = numberArg<double>(
                arg, need(i), 0.0, std::numeric_limits<double>::max(),
                /*above=*/true);
        } else if (arg == "--requests") {
            opt.arrivals.requests = numberArg<size_t>(arg, need(i));
        } else if (arg == "--process") {
            const std::string p = toLower(need(i));
            if (p == "poisson")
                opt.arrivals.process = ArrivalProcess::Poisson;
            else if (p == "burst")
                opt.arrivals.process = ArrivalProcess::Burst;
            else if (p == "diurnal")
                opt.arrivals.process = ArrivalProcess::Diurnal;
            else
                usage();
        } else if (arg == "--arrival-seed") {
            opt.arrivals.seed = numberArg<uint64_t>(arg, need(i));
        } else if (arg == "--fault-seed") {
            opt.fault_seed = numberArg<uint64_t>(arg, need(i));
        } else if (arg == "--fault-plan") {
            opt.fault_plan = need(i);
        } else if (arg == "--timeout-ms") {
            opt.policy.timeout_ms = numberArg<double>(arg, need(i));
        } else if (arg == "--retries") {
            opt.policy.max_retries = numberArg<size_t>(arg, need(i));
        } else if (arg == "--deadline-ms") {
            opt.arrivals.deadline_ms = numberArg<double>(arg, need(i));
        } else if (arg == "--queue-limit") {
            opt.policy.queue_limit = numberArg<size_t>(arg, need(i));
        } else if (arg == "--generate") {
            opt.generate = true;
        } else if (arg == "--out-min") {
            opt.out_min = numberArg<size_t>(arg, need(i), 1);
        } else if (arg == "--out-max") {
            opt.out_max = numberArg<size_t>(arg, need(i), 1);
        } else if (arg == "--kv-budget-mb") {
            opt.kv.budget_bytes =
                numberArg<size_t>(arg, need(i), 1, SIZE_MAX >> 20) << 20;
        } else if (arg == "--page-tokens") {
            opt.kv.page_tokens = numberArg<size_t>(arg, need(i), 1);
        } else if (arg == "--max-batch") {
            opt.batch.max_batch_seqs = numberArg<size_t>(arg, need(i), 1);
        } else if (arg == "--step-tokens") {
            opt.batch.max_step_tokens = numberArg<size_t>(arg, need(i), 1);
        } else if (arg == "--no-evict") {
            opt.kv.evict_after_prefill = false;
        } else if (arg == "--no-topk") {
            opt.kv.dynamic_topk = false;
        } else if (arg == "--streaming-prefill") {
            opt.batch.streaming_prefill = true;
        } else if (arg == "--watchdog-ms") {
            opt.batch.watchdog_stall_ms = numberArg<double>(arg, need(i));
        } else if (arg == "--no-migration") {
            opt.migrate.enabled = false;
        } else if (arg == "--migration-page-ms") {
            opt.migrate.page_ms = numberArg<double>(arg, need(i));
        } else if (arg == "--probation-steps") {
            opt.migrate.probation_steps = numberArg<size_t>(arg, need(i));
        } else if (arg == "--probation-seqs") {
            opt.migrate.probation_seqs = numberArg<size_t>(arg, need(i));
        } else if (arg == "--train") {
            opt.train = true;
        } else if (arg == "--steps") {
            opt.train_steps = numberArg<size_t>(arg, need(i));
        } else if (arg == "--batch") {
            opt.train_batch = numberArg<size_t>(arg, need(i), 1);
        } else if (arg == "--train-seed") {
            opt.train_seed = numberArg<uint64_t>(arg, need(i));
        } else if (arg == "--checkpoint-dir") {
            opt.checkpoint.dir = need(i);
        } else if (arg == "--checkpoint-every") {
            opt.checkpoint.every = numberArg<size_t>(arg, need(i));
        } else if (arg == "--keep-last") {
            opt.checkpoint.keep_last = numberArg<size_t>(arg, need(i));
        } else if (arg == "--resume") {
            opt.checkpoint.resume = true;
        } else if (arg == "--kill-at-step") {
            opt.kill_at_step = numberArg<long>(arg, need(i));
        } else if (arg == "--generation") {
            opt.generation = true;
        } else if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else {
            std::cerr << "unknown flag '" << arg << "'\n";
            usage();
        }
    }
    return opt;
}

void
listDevices(std::ostream &os)
{
    Table t("registered devices");
    t.header({"key", "description"});
    for (const std::string &key : DeviceRegistry::keys())
        t.addRow({key, DeviceRegistry::describe(key)});
    t.print(os);
}

/** Print the precision table (one row per --precision value). */
void
listPrecisions(std::ostream &os)
{
    os << "inference precisions (--precision):\n"
       << "  fp32  float software path; FX16 accelerator datapath "
          "(the paper baseline)\n"
       << "  int8  quantized path (DESIGN.md §16): u8 x s8 maddubs GEMM "
          "kernels + integer softmax\n"
       << "        in software, INT8 RMMU datapath and 1-byte operand/KV "
          "traffic in the simulator\n";
}

/**
 * Resolve --precision into SimOptions::datapath, mirroring deviceKey():
 * unknown values print the precision table and exit 2; "list" prints it
 * and exits 0.
 */
void
applyPrecision(CliOptions &opt)
{
    if (opt.precision.empty() || opt.precision == "fp32")
        return;
    if (opt.precision == "list") {
        listPrecisions(std::cout);
        std::exit(0);
    }
    if (opt.precision == "int8") {
        opt.sim.datapath = Precision::INT8;
        return;
    }
    std::cerr << "unknown --precision value '" << opt.precision
              << "'; pick one of these:\n";
    listPrecisions(std::cerr);
    std::exit(2);
}

/** Map legacy aliases onto registry keys. */
std::string
deviceKey(const CliOptions &opt)
{
    if (opt.device == "dota")
        return dotaModeKey(opt.mode);
    if (opt.device == "gpu")
        return "gpu-v100";
    if (!DeviceRegistry::contains(opt.device)) {
        // Don't surface the registry's fatal(): explain the key and
        // show the same list --device=list would, then exit non-zero.
        std::cerr << "unknown device '" << opt.device
                  << "'; pick one of these keys (or the aliases dota, "
                     "gpu):\n";
        listDevices(std::cerr);
        std::exit(2);
    }
    return opt.device;
}

/** Parse --fault-plan; malformed input prints the grammar, exits 2. */
FaultPlan
faultPlanOrDie(const CliOptions &opt)
{
    FaultPlan plan;
    if (!opt.fault_plan.empty()) {
        const FaultPlanParse parsed = tryParseFaultPlan(opt.fault_plan);
        if (!parsed.ok) {
            std::cerr << "error: " << parsed.error << "\n\n"
                      << faultPlanGrammar() << "\n";
            std::exit(2);
        }
        plan = parsed.plan;
    }
    return plan;
}

/** --serve: replay a seeded arrival trace under the fault plan. */
int
runServe(const CliOptions &opt)
{
    const Benchmark &bench = benchmarkByName(opt.benchmark);
    ServeConfig sc;
    DeviceSpec spec;
    spec.key = deviceKey(opt);
    spec.count = opt.accelerators;
    spec.opts.sim = opt.sim; // --precision/--parallelism/... flow through
    sc.devices = {spec};
    sc.policy = opt.policy;
    const RequestTrace trace = generateTrace(opt.arrivals);
    const FaultPlan plan = faultPlanOrDie(opt);
    ServingSimulator sim(sc, bench);
    std::cout << "serving " << trace.requests.size() << " "
              << bench.name << " requests ("
              << arrivalProcessName(opt.arrivals.process) << " "
              << fmtNum(opt.arrivals.rate_per_s, 1)
              << " req/s, arrival seed " << opt.arrivals.seed
              << ") on " << sim.size() << "x " << spec.key
              << "\nfault plan: " << describeFaultPlan(plan)
              << " (fault seed " << opt.fault_seed << ")\n\n";
    const ServeReport rep = sim.run(trace, plan, opt.fault_seed);
    rep.print(std::cout);
    return 0;
}

/** --generate: serve a seeded GenRequest trace with the engine. */
int
runGenerate(const CliOptions &opt)
{
    const Benchmark &bench = benchmarkByName(opt.benchmark);
    EngineConfig ec;
    DeviceSpec spec;
    spec.key = deviceKey(opt);
    spec.count = opt.accelerators;
    spec.opts.sim = opt.sim; // --precision/--parallelism/... flow through
    ec.devices = {spec};
    ec.policy = opt.policy;
    ec.batch = opt.batch;
    ec.kv = opt.kv;
    // An int8 KV cache stores 1-byte codes instead of fp32: 4x the
    // tokens per page budget (per-tensor scales are amortized away).
    if (opt.sim.datapath == Precision::INT8 && ec.kv.bytes_per_token == 0)
        ec.kv.bytes_per_token =
            2 * bench.paper_shape.layers * bench.paper_shape.dim;
    ec.migrate = opt.migrate;
    GenTraceConfig tc;
    tc.arrivals = opt.arrivals;
    tc.out_min = opt.out_min;
    tc.out_max = opt.out_max;
    if (tc.out_min > tc.out_max) {
        std::cerr << "error: --out-min must be <= --out-max\n";
        std::exit(2);
    }
    const GenTrace trace = generateGenTrace(tc);
    const FaultPlan plan = faultPlanOrDie(opt);
    GenerationEngine engine(ec, bench);
    // Each flag passes its own bound, but together they must fit one
    // page in the budget (compared in tokens: the page's bytes can wrap).
    if (ec.kv.page_tokens > ec.kv.budget_bytes / engine.bytesPerToken()) {
        std::cerr << "error: --kv-budget-mb (" << ec.kv.budget_bytes
                  << " B) holds no page of --page-tokens ("
                  << ec.kv.page_tokens << ") x " << engine.bytesPerToken()
                  << " B/token\n";
        usage();
    }
    std::cout << "generating for " << trace.requests.size() << " "
              << bench.name << " prompts ("
              << arrivalProcessName(opt.arrivals.process) << " "
              << fmtNum(opt.arrivals.rate_per_s, 1)
              << " req/s, arrival seed " << opt.arrivals.seed << ", "
              << trace.totalOutputTokens() << " output tokens) on "
              << engine.size() << "x " << spec.key << " ("
              << fmtBytes(double(ec.kv.budget_bytes))
              << " KV budget/device, " << engine.bytesPerToken()
              << " B/token)\nfault plan: " << describeFaultPlan(plan)
              << " (fault seed " << opt.fault_seed << ")\n\n";
    const ServeReport rep = engine.run(trace, plan, opt.fault_seed);
    rep.print(std::cout);
    // Plain grep-friendly summary line (CI smoke asserts on it).
    std::cout << "TTFT p50=" << fmtNum(rep.gen.ttft_p50_ms, 2)
              << "ms p95=" << fmtNum(rep.gen.ttft_p95_ms, 2)
              << "ms p99=" << fmtNum(rep.gen.ttft_p99_ms, 2)
              << "ms | TPOT p50=" << fmtNum(rep.gen.tpot_p50_ms, 3)
              << "ms | KV peak " << rep.gen.kv_peak_pages << "/"
              << rep.gen.kv_pages_total << " pages\n";
    // Chaos summary (grep-friendly; only when chaos actually struck).
    if (rep.failovers + rep.gen.corrupted_pages_detected +
            rep.gen.transient_steps + rep.gen.watchdog_migrations +
            rep.gen.migrations + rep.gen.drains >
        0) {
        std::cout << "chaos: failovers=" << rep.gen.prefill_failovers
                  << "/" << rep.gen.decode_failovers
                  << " wasted-decode=" << rep.gen.wasted_decode_tokens
                  << " corrupted-pages="
                  << rep.gen.corrupted_pages_detected
                  << " recoveries=" << rep.gen.recoveries << " (p50="
                  << fmtNum(rep.gen.recovery_p50_ms, 2) << "ms)\n";
        std::cout << "migration: migrated=" << rep.gen.migrations
                  << " drains=" << rep.gen.drains
                  << " pages=" << rep.gen.migrated_pages
                  << " saved-prefill=" << rep.gen.saved_prefill_tokens
                  << " wasted-prefill=" << rep.gen.wasted_prefill_tokens
                  << " no-target=" << rep.gen.migration_no_target
                  << " poisoned=" << rep.gen.migration_poisoned
                  << " (p50=" << fmtNum(rep.gen.migration_p50_ms, 2)
                  << "ms)\n";
    }
    return 0;
}

/**
 * --train: crash-safe training of the benchmark's tiny proxy model.
 * The final loss is printed as a hex float (%a) so two runs can be
 * diffed bit-for-bit — the CI smoke kills a run mid-step, resumes it
 * and compares against an uninterrupted run.
 */
int
runTrain(const CliOptions &opt)
{
    const Benchmark &bench = benchmarkByName(opt.benchmark);
    TrainConfig tc;
    tc.steps = opt.train_steps;
    tc.batch = opt.train_batch;
    tc.data_seed = opt.train_seed;
    tc.checkpoint = opt.checkpoint;
    if (!tc.checkpoint.dir.empty() && tc.checkpoint.every == 0)
        tc.checkpoint.every = 10;

    // The hard kill fires mid-step K (after the gradient reduction,
    // before the optimizer update) — the worst place to die, since the
    // step's checkpoint has not been written yet.
    auto kill = [&](size_t step, const std::vector<Parameter *> &) {
        if (opt.kill_at_step >= 0 &&
            step == static_cast<size_t>(opt.kill_at_step)) {
            std::cerr << "simulated crash: killing the process mid-step "
                      << step << "\n";
            std::_Exit(42);
        }
    };

    double final_loss = 0.0;
    size_t trained_steps = 0;
    const auto trainOn = [&](auto &model, const auto &data) {
        Trainer trainer(model, data, tc);
        if (opt.kill_at_step >= 0)
            trainer.setGradCallback(kill);
        final_loss = trainer.train();
        trained_steps = trainer.lossHistory().size();
    };
    if (bench.id == BenchmarkId::LM) {
        TransformerConfig cfg = bench.tiny;
        cfg.max_seq = 128;
        CausalLM model(cfg);
        trainOn(model, SyntheticGrammar(proxyGrammarFor(bench)));
    } else {
        TransformerClassifier model(bench.tiny);
        trainOn(model, SyntheticTask(proxyTaskFor(bench)));
    }
    char hex[64];
    std::snprintf(hex, sizeof(hex), "%a", final_loss);
    std::cout << "trained " << bench.name << " for " << trained_steps
              << "/" << tc.steps << " steps (batch " << tc.batch
              << ", seed " << tc.data_seed << ")\n"
              << "final loss " << hex << " (" << final_loss << ")\n";
    return 0;
}

void
printReport(const RunReport &r, bool csv)
{
    Table t(format("{} on {}", r.benchmark, r.device));
    t.header({"phase", "cycles/layer", "MACs/layer", "SRAM/layer",
              "DRAM/layer", "energy/layer"});
    for (const PhaseCost *p :
         {&r.per_layer.linear, &r.per_layer.detection,
          &r.per_layer.attention}) {
        t.addRow({p->name, fmtNum(double(p->cycles), 0),
                  fmtNum(double(p->macs), 0),
                  fmtBytes(double(p->sram_bytes)),
                  fmtBytes(double(p->dram_bytes)),
                  fmtNum(p->energy_pj * 1e-9, 4) + "mJ"});
    }
    if (csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    std::cout << "layers: " << r.layers << ", total time "
              << fmtNum(r.timeMs(), 3) << "ms, total energy "
              << fmtNum(r.totalEnergyJ() * 1e3, 3) << "mJ";
    if (!r.datapath.empty())
        std::cout << ", datapath " << r.datapath;
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opt = parse(argc, argv);
    applyPrecision(opt);
    if (opt.device == "list") {
        listDevices(std::cout);
        return 0;
    }
    if (opt.serve)
        return runServe(opt);
    if (opt.generate)
        return runGenerate(opt);
    if (opt.train)
        return runTrain(opt);
    const Benchmark &bench = benchmarkByName(opt.benchmark);
    const std::string key = deviceKey(opt);

    HwConfig hw = HwConfig::dota();
    hw.lanes = opt.lanes;
    hw.dram_gb_per_s = 16.0 * static_cast<double>(opt.lanes);

    DeviceOptions dev_opt;
    dev_opt.hw = hw;
    dev_opt.sim = opt.sim;
    const std::unique_ptr<Device> device =
        DeviceRegistry::create(key, dev_opt);

    const RunReport r = opt.generation
                            ? device->simulateGeneration(bench)
                            : device->simulate(bench);
    printReport(r, opt.csv);

    if (opt.trace && key.rfind("dota-", 0) == 0) {
        const DotaMode mode =
            dynamic_cast<const DotaDevice &>(*device).mode();
        std::cout << "\nexecution trace of the first attention group:\n";
        Rng rng(opt.sim.mask_seed);
        const double retention = modeRetention(bench, mode);
        const SparseMask mask = synthesizeMask(
            bench.paper_shape.seq_len,
            profileFor(bench.id, retention < 1.0 ? retention : 0.1), rng,
            bench.paper_shape.decoder);
        LocalityAwareScheduler las(opt.sim.token_parallelism);
        const GroupTrace trace = traceAttentionGroup(
            las.scheduleGroup(mask, 0), hw.lane,
            bench.paper_shape.headDim());
        trace.print(std::cout);
    }
    return 0;
}
