/**
 * @file
 * Tests for the crash-safe checkpointing stack: CRC32, the checksummed
 * record-file container, model checkpoint round-trips for every paper
 * benchmark's tiny proxy, full training-state snapshots (Adam moments,
 * RNG, loss history, guard counters), the corruption-injection harness
 * (every mode must be *detected*), resumeLatest fallback, retention
 * pruning, atomic writes, and the numerical guard rails.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/fileio.hpp"
#include "common/recordfile.hpp"
#include "nn/serialize.hpp"
#include "train/checkpoint.hpp"
#include "train/corrupt.hpp"
#include "train/guardrails.hpp"
#include "workloads/benchmark.hpp"
#include "workloads/trainer.hpp"

namespace dota {
namespace {

/** Fresh empty scratch directory under the test temp root. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "dota_ckpt_" + name;
    std::filesystem::remove_all(dir);
    EXPECT_TRUE(ensureDir(dir));
    return dir;
}

bool
bitsEqual(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------- crc32

TEST(Crc32, KnownVectorAndChaining)
{
    // The standard IEEE CRC32 check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
    // Incremental computation over a split buffer equals one-shot.
    const std::string data = "the quick brown fox";
    const uint32_t whole = crc32(data);
    const uint32_t part = crc32(data.data() + 7, data.size() - 7,
                                crc32(data.data(), 7));
    EXPECT_EQ(whole, part);
    // Any single flipped bit changes the checksum.
    std::string flipped = data;
    flipped[3] ^= 0x10;
    EXPECT_NE(crc32(flipped), whole);
}

// ---------------------------------------------------------------- container

TEST(RecordFile, RoundTrip)
{
    RecordFileBuilder builder(recordKind('T', 'E', 'S', 'T'), 7);
    const std::string binary("\x00\xff\x01\x7f", 4);
    builder.add("alpha", "payload-a");
    builder.add("empty", "");
    builder.add("binary", binary);
    const std::string bytes = builder.finish();

    RecordFile file;
    ASSERT_EQ(parseRecordFile(bytes, file), RecordFileStatus::Ok);
    EXPECT_EQ(file.kind, recordKind('T', 'E', 'S', 'T'));
    EXPECT_EQ(file.schema_version, 7u);
    ASSERT_EQ(file.records.size(), 3u);
    EXPECT_EQ(file.records[0].first, "alpha");
    EXPECT_EQ(file.records[0].second, "payload-a");
    ASSERT_NE(file.find("empty"), nullptr);
    EXPECT_TRUE(file.find("empty")->empty());
    ASSERT_NE(file.find("binary"), nullptr);
    EXPECT_EQ(*file.find("binary"), binary);
    EXPECT_EQ(file.find("missing"), nullptr);
}

TEST(RecordFile, GarbageParsesToStatusNotUB)
{
    RecordFile file;
    std::string error;
    EXPECT_EQ(parseRecordFile("", file, &error),
              RecordFileStatus::BadMagic);
    EXPECT_EQ(parseRecordFile("plain text, no magic", file),
              RecordFileStatus::BadMagic);
    // Correct magic but nothing after it: a torn header.
    EXPECT_EQ(parseRecordFile("DOTC", file), RecordFileStatus::Truncated);

    RecordFileBuilder builder(recordKind('T', 'E', 'S', 'T'), 1);
    builder.add("r", "payload");
    const std::string good = builder.finish();
    // Any strict prefix long enough to keep the header is Truncated.
    EXPECT_EQ(parseRecordFile(good.substr(0, good.size() - 5), file),
              RecordFileStatus::Truncated);
    // A flipped payload byte (footer intact) is Corrupt.
    std::string damaged = good;
    damaged[20] ^= 0x40;
    EXPECT_EQ(parseRecordFile(damaged, file, &error),
              RecordFileStatus::Corrupt);
    EXPECT_FALSE(error.empty());
    // A future container version is refused, not misparsed.
    std::string future = good;
    future[4] = 9;
    EXPECT_EQ(parseRecordFile(future, file),
              RecordFileStatus::BadVersion);
}

// ---------------------------------------------------------------- models

TEST(Serialize, RoundTripAllBenchmarkModels)
{
    const std::string dir = scratchDir("models");
    for (const Benchmark &b : allBenchmarks()) {
        const std::string path = dir + "/" + b.name + ".bin";
        if (b.id == BenchmarkId::LM) {
            TransformerConfig cfg = b.tiny;
            cfg.max_seq = 128;
            CausalLM a(cfg);
            saveCheckpoint(a, path);
            EXPECT_TRUE(isCheckpoint(path));
            TransformerConfig cfg2 = cfg;
            cfg2.seed = 999;
            CausalLM c(cfg2);
            ASSERT_EQ(tryLoadCheckpoint(c, path), LoadStatus::Ok)
                << b.name;
            std::vector<Parameter *> pa, pc;
            a.collectParams(pa);
            c.collectParams(pc);
            ASSERT_EQ(pa.size(), pc.size());
            for (size_t i = 0; i < pa.size(); ++i)
                EXPECT_TRUE(bitsEqual(pa[i]->value, pc[i]->value))
                    << b.name << " param " << pa[i]->name;
            // Same input, bit-identical loss after the round trip.
            const SyntheticGrammar grammar(proxyGrammarFor(b));
            Rng rng(3);
            const std::vector<int> toks = grammar.sample(rng);
            EXPECT_EQ(a.lmLoss(toks, false), c.lmLoss(toks, false));
        } else {
            TransformerClassifier a(b.tiny);
            saveCheckpoint(a, path);
            EXPECT_TRUE(isCheckpoint(path));
            TransformerConfig cfg2 = b.tiny;
            cfg2.seed = 999;
            TransformerClassifier c(cfg2);
            ASSERT_EQ(tryLoadCheckpoint(c, path), LoadStatus::Ok)
                << b.name;
            std::vector<Parameter *> pa, pc;
            a.collectParams(pa);
            c.collectParams(pc);
            ASSERT_EQ(pa.size(), pc.size());
            for (size_t i = 0; i < pa.size(); ++i)
                EXPECT_TRUE(bitsEqual(pa[i]->value, pc[i]->value))
                    << b.name << " param " << pa[i]->name;
            Rng rng(3);
            const Matrix x =
                Matrix::randomNormal(8, b.tiny.in_dim, rng);
            EXPECT_TRUE(bitsEqual(a.forward(x), c.forward(x)))
                << b.name;
        }
    }
}

TEST(Serialize, ArchMismatchNamesBothSides)
{
    const std::string dir = scratchDir("mismatch");
    const std::string path = dir + "/ckpt.bin";
    TransformerConfig cfg;
    cfg.in_dim = 8;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.ffn_dim = 32;
    cfg.classes = 2;
    TransformerClassifier a(cfg);
    saveCheckpoint(a, path);

    TransformerConfig other = cfg;
    other.dim = 32;
    other.ffn_dim = 64;
    TransformerClassifier b(other);
    std::string error;
    EXPECT_EQ(tryLoadCheckpoint(b, path, &error),
              LoadStatus::ArchMismatch);
    // The diagnostic names what the file holds AND what the model wants.
    EXPECT_NE(error.find("checkpoint has"), std::string::npos) << error;
    EXPECT_NE(error.find("module expects"), std::string::npos) << error;

    // A failed load leaves the target untouched.
    std::vector<Parameter *> pb;
    b.collectParams(pb);
    TransformerClassifier fresh(other);
    std::vector<Parameter *> pf;
    fresh.collectParams(pf);
    for (size_t i = 0; i < pb.size(); ++i)
        EXPECT_TRUE(bitsEqual(pb[i]->value, pf[i]->value));

    // Wrong parameter *count* is also an ArchMismatch, not a crash.
    TransformerConfig deeper = cfg;
    deeper.layers = 2;
    TransformerClassifier d(deeper);
    EXPECT_EQ(tryLoadCheckpoint(d, path, &error),
              LoadStatus::ArchMismatch);
    EXPECT_NE(error.find("parameter records"), std::string::npos)
        << error;
}

TEST(Serialize, IsCheckpointRejectsShortAndForeignFiles)
{
    const std::string dir = scratchDir("sniff");
    const std::string empty = dir + "/empty";
    const std::string shorty = dir + "/short";
    const std::string text = dir + "/text";
    ASSERT_TRUE(writeFileAtomic(empty, ""));
    ASSERT_TRUE(writeFileAtomic(shorty, "DOTC"));
    ASSERT_TRUE(writeFileAtomic(text, "not a checkpoint at all"));
    EXPECT_FALSE(isCheckpoint(empty));
    EXPECT_FALSE(isCheckpoint(shorty));
    EXPECT_FALSE(isCheckpoint(text));
    EXPECT_FALSE(isCheckpoint(dir + "/missing"));
    // A *training* checkpoint is a record file but not a model one.
    std::string bytes =
        RecordFileBuilder(recordKind('T', 'R', 'N', 'S'), 1).finish();
    const std::string train = dir + "/train";
    ASSERT_TRUE(writeFileAtomic(train, bytes));
    EXPECT_FALSE(isCheckpoint(train));
    // tryLoad classifies non-checkpoints as a status, not a crash.
    TransformerConfig cfg;
    cfg.in_dim = 8;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.ffn_dim = 32;
    cfg.classes = 2;
    TransformerClassifier m(cfg);
    EXPECT_EQ(tryLoadCheckpoint(m, text), LoadStatus::NotACheckpoint);
    EXPECT_EQ(tryLoadCheckpoint(m, dir + "/missing"),
              LoadStatus::IoError);
    EXPECT_EQ(tryLoadCheckpoint(m, train), LoadStatus::NotACheckpoint);
}

// --------------------------------------------------------- training state

/** Tiny classifier + trainer used by the training-state tests. */
struct TrainRig
{
    TaskConfig tc;
    TransformerConfig mc;
    SyntheticTask task;
    TransformerClassifier model;

    TrainRig()
        : tc(makeTask()), mc(makeModel()), task(tc), model(mc)
    {}

    static TaskConfig
    makeTask()
    {
        TaskConfig t;
        t.seq_len = 16;
        t.in_dim = 8;
        t.classes = 2;
        t.signal_count = 2;
        t.seed = 77;
        return t;
    }

    static TransformerConfig
    makeModel()
    {
        TransformerConfig m;
        m.in_dim = 8;
        m.dim = 16;
        m.heads = 2;
        m.layers = 1;
        m.ffn_dim = 32;
        m.classes = 2;
        m.seed = 5;
        return m;
    }

    TrainConfig
    trainCfg(size_t steps) const
    {
        TrainConfig cfg;
        cfg.steps = steps;
        cfg.batch = 2;
        cfg.data_seed = 9;
        return cfg;
    }
};

TEST(TrainCheckpoint, SnapshotRoundTripIsBitExact)
{
    const std::string dir = scratchDir("snapshot");
    TrainRig rig;
    TrainConfig cfg = rig.trainCfg(4);
    ClassifierTrainer trainer(rig.model, rig.task, cfg);
    trainer.train();

    std::vector<Parameter *> params;
    rig.model.collectParams(params);
    Adam opt(params);
    Rng rng(123);
    rng.normal(); // leave a cached Box-Muller value in flight
    std::vector<double> losses = trainer.lossHistory();
    GuardRailStats guard;
    guard.skipped_steps = 3;
    guard.clipped_steps = 1;
    TrainingSnapshot snap =
        captureSnapshot(losses.size(), params, opt, rng, losses, guard);

    const std::string path = dir + "/" + checkpointFileName(4);
    ASSERT_TRUE(trySaveTrainCheckpoint(snap, path));

    TrainingSnapshot loaded;
    std::string error;
    ASSERT_EQ(tryLoadTrainCheckpoint(path, loaded, &error),
              LoadStatus::Ok)
        << error;
    EXPECT_EQ(loaded.step, snap.step);
    EXPECT_EQ(loaded.adam_t, snap.adam_t);
    ASSERT_EQ(loaded.params.size(), snap.params.size());
    for (size_t i = 0; i < snap.params.size(); ++i) {
        EXPECT_EQ(loaded.params[i].first, snap.params[i].first);
        EXPECT_TRUE(
            bitsEqual(loaded.params[i].second, snap.params[i].second));
        // Adam moments survive byte-for-byte.
        EXPECT_TRUE(bitsEqual(loaded.adam_m[i], snap.adam_m[i]));
        EXPECT_TRUE(bitsEqual(loaded.adam_v[i], snap.adam_v[i]));
    }
    for (size_t w = 0; w < 4; ++w)
        EXPECT_EQ(loaded.data_rng.s[w], snap.data_rng.s[w]);
    EXPECT_EQ(loaded.data_rng.has_cached, snap.data_rng.has_cached);
    EXPECT_EQ(loaded.data_rng.cached, snap.data_rng.cached);
    ASSERT_EQ(loaded.loss_history.size(), snap.loss_history.size());
    for (size_t i = 0; i < snap.loss_history.size(); ++i)
        EXPECT_EQ(loaded.loss_history[i], snap.loss_history[i]);
    EXPECT_EQ(loaded.guard.skipped_steps, 3u);
    EXPECT_EQ(loaded.guard.clipped_steps, 1u);

    // The restored RNG continues the exact stream.
    Rng replica(1);
    replica.setState(loaded.data_rng);
    Rng original(1);
    original.setState(snap.data_rng);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(original.normal(), replica.normal());
}

TEST(TrainCheckpoint, EveryCorruptionModeIsDetected)
{
    const std::string dir = scratchDir("corrupt");
    TrainRig rig;
    TrainConfig cfg = rig.trainCfg(4);
    cfg.checkpoint.dir = dir;
    cfg.checkpoint.every = 4;
    ClassifierTrainer trainer(rig.model, rig.task, cfg);
    trainer.train();
    const std::string good = dir + "/" + checkpointFileName(4);
    ASSERT_TRUE(fileExists(good));

    for (CorruptionMode mode : kAllCorruptionModes) {
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            const std::string victim = dir + "/victim.dota";
            std::string bytes;
            ASSERT_TRUE(readFile(good, bytes));
            ASSERT_TRUE(writeFileAtomic(victim, bytes));
            Rng rng(seed);
            ASSERT_TRUE(corruptFile(victim, mode, rng))
                << corruptionModeName(mode);
            // The damaged file must differ from the original...
            std::string damaged;
            ASSERT_TRUE(readFile(victim, damaged));
            EXPECT_NE(damaged, bytes)
                << corruptionModeName(mode) << " seed " << seed;
            // ...and verification must never report it Ok.
            TrainingSnapshot snap;
            std::string error;
            const LoadStatus status =
                tryLoadTrainCheckpoint(victim, snap, &error);
            EXPECT_NE(status, LoadStatus::Ok)
                << corruptionModeName(mode) << " seed " << seed;
            EXPECT_FALSE(error.empty())
                << corruptionModeName(mode) << " seed " << seed;
        }
    }
}

TEST(TrainCheckpoint, ResumeLatestFallsBackPastCorruptFiles)
{
    const std::string dir = scratchDir("fallback");
    TrainRig rig;
    TrainConfig cfg = rig.trainCfg(6);
    cfg.checkpoint.dir = dir;
    cfg.checkpoint.every = 2;
    ClassifierTrainer trainer(rig.model, rig.task, cfg);
    trainer.train();
    ASSERT_EQ(listTrainCheckpoints(dir).size(), 3u);

    // Newest checkpoint verifies: resume picks it.
    TrainingSnapshot snap;
    ResumeResult res = resumeLatest(dir, snap);
    EXPECT_TRUE(res.resumed);
    EXPECT_EQ(res.path, dir + "/" + checkpointFileName(6));
    EXPECT_EQ(res.skipped_bad, 0u);
    EXPECT_EQ(snap.step, 6u);

    // Damage the newest two: resume falls back to the oldest good one.
    Rng rng(4);
    ASSERT_TRUE(corruptFile(dir + "/" + checkpointFileName(6),
                            CorruptionMode::BitFlip, rng));
    ASSERT_TRUE(corruptFile(dir + "/" + checkpointFileName(4),
                            CorruptionMode::Truncate, rng));
    res = resumeLatest(dir, snap);
    EXPECT_TRUE(res.resumed);
    EXPECT_EQ(res.path, dir + "/" + checkpointFileName(2));
    EXPECT_EQ(res.skipped_bad, 2u);
    EXPECT_EQ(res.diagnostics.size(), 2u);
    EXPECT_EQ(snap.step, 2u);

    // Damage everything: resume degrades to a fresh start, not a crash.
    ASSERT_TRUE(corruptFile(dir + "/" + checkpointFileName(2),
                            CorruptionMode::ZeroFill, rng));
    res = resumeLatest(dir, snap);
    EXPECT_FALSE(res.resumed);
    EXPECT_EQ(res.skipped_bad, 3u);

    // An empty directory is a fresh start too.
    const std::string nowhere = scratchDir("fallback_empty");
    res = resumeLatest(nowhere, snap);
    EXPECT_FALSE(res.resumed);
    EXPECT_EQ(res.skipped_bad, 0u);
}

TEST(TrainCheckpoint, RetentionKeepsOnlyNewest)
{
    const std::string dir = scratchDir("retention");
    TrainRig rig;
    TrainConfig cfg = rig.trainCfg(10);
    cfg.checkpoint.dir = dir;
    cfg.checkpoint.every = 2;
    cfg.checkpoint.keep_last = 2;
    ClassifierTrainer trainer(rig.model, rig.task, cfg);
    trainer.train();
    const std::vector<std::string> names = listTrainCheckpoints(dir);
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], checkpointFileName(8));
    EXPECT_EQ(names[1], checkpointFileName(10));

    // keep_last = 0 never deletes the only copy.
    pruneCheckpoints(dir, 0);
    EXPECT_EQ(listTrainCheckpoints(dir).size(), 1u);
    EXPECT_EQ(listTrainCheckpoints(dir)[0], checkpointFileName(10));

    // Foreign files in the directory are ignored, not deleted.
    ASSERT_TRUE(writeFileAtomic(dir + "/notes.txt", "keep me"));
    ASSERT_TRUE(writeFileAtomic(dir + "/ckpt-junk.dota", "not numeric"));
    EXPECT_EQ(listTrainCheckpoints(dir).size(), 1u);
    pruneCheckpoints(dir, 1);
    EXPECT_TRUE(fileExists(dir + "/notes.txt"));
    EXPECT_TRUE(fileExists(dir + "/ckpt-junk.dota"));
}

TEST(TrainCheckpoint, AtomicWriteLeavesNoTempBehind)
{
    const std::string dir = scratchDir("atomic");
    const std::string path = dir + "/file.bin";
    ASSERT_TRUE(writeFileAtomic(path, "hello"));
    std::string back;
    ASSERT_TRUE(readFile(path, back));
    EXPECT_EQ(back, "hello");
    // Success leaves exactly the target file, no temp siblings.
    EXPECT_EQ(listFiles(dir).size(), 1u);

    // Failure (unwritable destination directory) reports an error and
    // leaves no debris.
    std::string error;
    EXPECT_FALSE(writeFileAtomic(dir + "/no/such/dir/file.bin", "x",
                                 &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(listFiles(dir).size(), 1u);
}

TEST(TrainCheckpoint, FileNamesParseAndSort)
{
    EXPECT_EQ(checkpointFileName(12), "ckpt-00000012.dota");
    const std::string dir = scratchDir("names");
    for (uint64_t step : {10u, 2u, 100u})
        ASSERT_TRUE(writeFileAtomic(
            dir + "/" + checkpointFileName(step), "x"));
    ASSERT_TRUE(writeFileAtomic(dir + "/ckpt-x.dota", "junk"));
    const std::vector<std::string> names = listTrainCheckpoints(dir);
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], checkpointFileName(2));
    EXPECT_EQ(names[1], checkpointFileName(10));
    EXPECT_EQ(names[2], checkpointFileName(100));
}

// ------------------------------------------------------------ guard rails

TEST(GuardRails, SkipsNonFiniteLossAndGradient)
{
    Parameter p("w", Matrix(2, 2));
    std::vector<Parameter *> params{&p};
    StepGuard guard(GuardRailConfig{});

    EXPECT_FALSE(guard.shouldSkip(1.0, params));
    EXPECT_EQ(guard.stats().skipped_steps, 0u);

    // Non-finite loss: skip, counted under nonfinite_loss_steps.
    EXPECT_TRUE(guard.shouldSkip(
        std::numeric_limits<double>::quiet_NaN(), params));
    EXPECT_EQ(guard.stats().nonfinite_loss_steps, 1u);
    EXPECT_EQ(guard.stats().skipped_steps, 1u);
    EXPECT_EQ(guard.stats().consecutive_skips, 1u);

    // Non-finite gradient: skip, counted under nonfinite_grad_steps.
    p.grad.data()[3] = std::numeric_limits<float>::infinity();
    EXPECT_TRUE(guard.shouldSkip(0.5, params));
    EXPECT_EQ(guard.stats().nonfinite_grad_steps, 1u);
    EXPECT_EQ(guard.stats().skipped_steps, 2u);
    EXPECT_EQ(guard.stats().consecutive_skips, 2u);

    // A healthy step resets the streak but not the totals.
    p.grad.zero();
    EXPECT_FALSE(guard.shouldSkip(0.5, params));
    EXPECT_EQ(guard.stats().consecutive_skips, 0u);
    EXPECT_EQ(guard.stats().skipped_steps, 2u);
}

TEST(GuardRails, ConsecutiveSkipLimitIsFatal)
{
    Parameter p("w", Matrix(1, 1));
    std::vector<Parameter *> params{&p};
    GuardRailConfig cfg;
    cfg.max_consecutive_skips = 3;
    StepGuard guard(cfg);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(guard.shouldSkip(nan, params));
    EXPECT_EXIT(guard.shouldSkip(nan, params),
                ::testing::ExitedWithCode(1), "consecutive");
}

TEST(GuardRails, ClipCounterTracksAdam)
{
    Parameter p("w", Matrix(2, 2));
    std::vector<Parameter *> params{&p};
    AdamConfig ac;
    ac.clip_norm = 1.0;
    Adam opt(params, ac);
    StepGuard guard(GuardRailConfig{});

    for (size_t i = 0; i < p.grad.size(); ++i)
        p.grad.data()[i] = 100.0f; // norm far above the clip
    opt.step();
    guard.afterStep(opt);
    EXPECT_TRUE(opt.lastStepClipped());
    EXPECT_EQ(guard.stats().clipped_steps, 1u);

    for (size_t i = 0; i < p.grad.size(); ++i)
        p.grad.data()[i] = 1e-4f;
    opt.step();
    guard.afterStep(opt);
    EXPECT_EQ(guard.stats().clipped_steps, 1u);
}

TEST(GuardRails, TrainerSkipsInjectedNaNStepAndRecovers)
{
    TrainRig rig;
    TrainConfig cfg = rig.trainCfg(6);
    ClassifierTrainer trainer(rig.model, rig.task, cfg);

    // Inject a NaN gradient at step 2 and capture parameter bytes
    // around it: the skipped step must leave every weight untouched.
    std::vector<Matrix> before_skip;
    std::vector<Matrix> after_skip;
    trainer.setGradCallback(
        [&](size_t step, const std::vector<Parameter *> &params) {
            if (step == 2) {
                for (const Parameter *p : params)
                    before_skip.push_back(p->value);
                params[0]->grad.data()[0] =
                    std::numeric_limits<float>::quiet_NaN();
            } else if (step == 3) {
                for (const Parameter *p : params)
                    after_skip.push_back(p->value);
            }
        });
    const double final_loss = trainer.train();

    EXPECT_EQ(trainer.guardStats().nonfinite_grad_steps, 1u);
    EXPECT_EQ(trainer.guardStats().skipped_steps, 1u);
    EXPECT_EQ(trainer.guardStats().consecutive_skips, 0u);
    EXPECT_TRUE(std::isfinite(final_loss));
    EXPECT_EQ(trainer.lossHistory().size(), 6u);
    ASSERT_EQ(before_skip.size(), after_skip.size());
    for (size_t i = 0; i < before_skip.size(); ++i)
        EXPECT_TRUE(bitsEqual(before_skip[i], after_skip[i]))
            << "parameter " << i << " changed across a skipped step";
}

} // namespace
} // namespace dota
