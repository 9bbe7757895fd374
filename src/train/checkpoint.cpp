/**
 * @file
 * Implementation of full training-state checkpoints.
 */
#include "train/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/fileio.hpp"
#include "common/logging.hpp"
#include "common/recordfile.hpp"

namespace dota {

namespace {

constexpr uint32_t kTrainKind = recordKind('T', 'R', 'N', 'S');
constexpr uint32_t kSchemaVersion = 1;
constexpr char kFilePrefix[] = "ckpt-";
constexpr char kFileSuffix[] = ".dota";

std::string
encodeMeta(const TrainingSnapshot &snap)
{
    std::string buf;
    appendInt(buf, snap.step);
    appendInt(buf, snap.adam_t);
    appendInt(buf, static_cast<uint64_t>(snap.params.size()));
    appendInt(buf, snap.guard.nonfinite_loss_steps);
    appendInt(buf, snap.guard.nonfinite_grad_steps);
    appendInt(buf, snap.guard.skipped_steps);
    appendInt(buf, snap.guard.clipped_steps);
    appendInt(buf, snap.guard.consecutive_skips);
    return buf;
}

bool
decodeMeta(const std::string &buf, TrainingSnapshot &snap,
           uint64_t &param_count)
{
    size_t off = 0;
    return readInt(buf, off, snap.step) &&
           readInt(buf, off, snap.adam_t) &&
           readInt(buf, off, param_count) &&
           readInt(buf, off, snap.guard.nonfinite_loss_steps) &&
           readInt(buf, off, snap.guard.nonfinite_grad_steps) &&
           readInt(buf, off, snap.guard.skipped_steps) &&
           readInt(buf, off, snap.guard.clipped_steps) &&
           readInt(buf, off, snap.guard.consecutive_skips) &&
           off == buf.size();
}

std::string
encodeRng(const RngState &st)
{
    std::string buf;
    for (uint64_t word : st.s)
        appendInt(buf, word);
    appendInt(buf, st.cached);
    appendInt(buf, static_cast<uint8_t>(st.has_cached));
    return buf;
}

bool
decodeRng(const std::string &buf, RngState &st)
{
    size_t off = 0;
    for (uint64_t &word : st.s)
        if (!readInt(buf, off, word))
            return false;
    uint8_t flag = 0;
    if (!readInt(buf, off, st.cached) || !readInt(buf, off, flag) ||
        off != buf.size())
        return false;
    st.has_cached = flag != 0;
    return true;
}

std::string
encodeLosses(const std::vector<double> &losses)
{
    std::string buf;
    buf.reserve(losses.size() * sizeof(double));
    for (double v : losses)
        appendInt(buf, v);
    return buf;
}

bool
decodeLosses(const std::string &buf, std::vector<double> &out)
{
    if (buf.size() % sizeof(double) != 0)
        return false;
    out.resize(buf.size() / sizeof(double));
    std::memcpy(out.data(), buf.data(), buf.size());
    return true;
}

/** Step number encoded in a checkpoint file name, or false. */
bool
parseCheckpointName(const std::string &name, uint64_t &step)
{
    const size_t prefix_len = sizeof(kFilePrefix) - 1;
    const size_t suffix_len = sizeof(kFileSuffix) - 1;
    if (name.size() <= prefix_len + suffix_len ||
        name.rfind(kFilePrefix, 0) != 0 ||
        name.compare(name.size() - suffix_len, suffix_len, kFileSuffix)
            != 0)
        return false;
    step = 0;
    for (size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
        const char c = name[i];
        if (c < '0' || c > '9')
            return false;
        step = step * 10 + static_cast<uint64_t>(c - '0');
    }
    return true;
}

} // namespace

TrainingSnapshot
captureSnapshot(uint64_t step, const std::vector<Parameter *> &params,
                const Adam &opt, const Rng &data_rng,
                const std::vector<double> &loss_history,
                const GuardRailStats &guard)
{
    DOTA_ASSERT(opt.firstMoments().size() == params.size(),
                "optimizer tracks {} parameters, trainer has {}",
                opt.firstMoments().size(), params.size());
    TrainingSnapshot snap;
    snap.step = step;
    snap.params.reserve(params.size());
    for (const Parameter *p : params)
        snap.params.emplace_back(p->name, p->value);
    snap.adam_m = opt.firstMoments();
    snap.adam_v = opt.secondMoments();
    snap.adam_t = opt.stepCount();
    snap.data_rng = data_rng.getState();
    snap.loss_history = loss_history;
    snap.guard = guard;
    return snap;
}

LoadStatus
applySnapshot(const TrainingSnapshot &snap,
              const std::vector<Parameter *> &params, Adam &opt,
              Rng &data_rng, std::string *error)
{
    if (snap.params.size() != params.size()) {
        setError(error,
                 format("snapshot has {} parameters, model expects {}",
                        snap.params.size(), params.size()));
        return LoadStatus::ArchMismatch;
    }
    for (size_t i = 0; i < params.size(); ++i) {
        const auto &[name, value] = snap.params[i];
        const Parameter *p = params[i];
        if (name != p->name || value.rows() != p->value.rows() ||
            value.cols() != p->value.cols()) {
            setError(error,
                     format("parameter #{}: snapshot has '{}' ({}x{}), "
                            "model expects '{}' ({}x{})",
                            i, name, value.rows(), value.cols(),
                            p->name, p->value.rows(), p->value.cols()));
            return LoadStatus::ArchMismatch;
        }
    }
    for (size_t i = 0; i < params.size(); ++i)
        params[i]->value = snap.params[i].second;
    opt.setState(snap.adam_m, snap.adam_v, snap.adam_t);
    data_rng.setState(snap.data_rng);
    return LoadStatus::Ok;
}

bool
trySaveTrainCheckpoint(const TrainingSnapshot &snap,
                       const std::string &path, std::string *error)
{
    DOTA_ASSERT(snap.adam_m.size() == snap.params.size() &&
                    snap.adam_v.size() == snap.params.size(),
                "snapshot moments ({}, {}) misaligned with {} params",
                snap.adam_m.size(), snap.adam_v.size(),
                snap.params.size());
    RecordFileBuilder builder(kTrainKind, kSchemaVersion);
    builder.add("meta", encodeMeta(snap));
    builder.add("rng", encodeRng(snap.data_rng));
    builder.add("loss", encodeLosses(snap.loss_history));
    for (size_t i = 0; i < snap.params.size(); ++i) {
        const auto &[name, value] = snap.params[i];
        builder.add("param/" + name, encodeMatrix(value));
        builder.add("adam.m/" + name, encodeMatrix(snap.adam_m[i]));
        builder.add("adam.v/" + name, encodeMatrix(snap.adam_v[i]));
    }
    return writeFileAtomic(path, builder.finish(), error);
}

void
saveTrainCheckpoint(const TrainingSnapshot &snap, const std::string &path)
{
    std::string error;
    if (!trySaveTrainCheckpoint(snap, path, &error))
        DOTA_FATAL("saving training checkpoint failed: {}", error);
}

LoadStatus
tryLoadTrainCheckpoint(const std::string &path, TrainingSnapshot &out,
                       std::string *error)
{
    RecordFile file;
    const LoadStatus status = readCheckpointFile(
        path, kTrainKind, kSchemaVersion, "training checkpoint", file,
        error);
    if (status != LoadStatus::Ok)
        return status;

    out = TrainingSnapshot{};
    uint64_t param_count = 0;
    // Structural layout: meta, rng, loss, then (param, m, v) triplets.
    // The container CRCs already verified byte integrity, so any
    // structural surprise below means a buggy writer or a damaged file
    // that happened to keep its checksums — report Corrupt, don't crash.
    if (file.records.size() < 3 ||
        file.records[0].first != "meta" ||
        !decodeMeta(file.records[0].second, out, param_count)) {
        setError(error, "meta record missing or malformed");
        return LoadStatus::Corrupt;
    }
    if (file.records[1].first != "rng" ||
        !decodeRng(file.records[1].second, out.data_rng)) {
        setError(error, "rng record missing or malformed");
        return LoadStatus::Corrupt;
    }
    if (file.records[2].first != "loss" ||
        !decodeLosses(file.records[2].second, out.loss_history)) {
        setError(error, "loss record missing or malformed");
        return LoadStatus::Corrupt;
    }
    if (file.records.size() != 3 + 3 * param_count) {
        setError(error,
                 format("checkpoint declares {} parameters but carries "
                        "{} records", param_count,
                        file.records.size()));
        return LoadStatus::Corrupt;
    }
    out.params.reserve(param_count);
    out.adam_m.reserve(param_count);
    out.adam_v.reserve(param_count);
    for (uint64_t i = 0; i < param_count; ++i) {
        const auto &[pname, pbytes] = file.records[3 + 3 * i];
        const auto &[mname, mbytes] = file.records[4 + 3 * i];
        const auto &[vname, vbytes] = file.records[5 + 3 * i];
        if (pname.rfind("param/", 0) != 0 ||
            mname.rfind("adam.m/", 0) != 0 ||
            vname.rfind("adam.v/", 0) != 0) {
            setError(error, format("parameter triplet #{} mislabeled "
                                   "('{}', '{}', '{}')",
                                   i, pname, mname, vname));
            return LoadStatus::Corrupt;
        }
        Matrix value, m, v;
        if (!decodeMatrix(pbytes, value) || !decodeMatrix(mbytes, m) ||
            !decodeMatrix(vbytes, v)) {
            setError(error, format("parameter '{}' has a malformed "
                                   "payload", pname));
            return LoadStatus::Corrupt;
        }
        if (m.rows() != value.rows() || m.cols() != value.cols() ||
            v.rows() != value.rows() || v.cols() != value.cols()) {
            setError(error, format("parameter '{}' moments disagree "
                                   "with its shape", pname));
            return LoadStatus::Corrupt;
        }
        out.params.emplace_back(pname.substr(6), std::move(value));
        out.adam_m.push_back(std::move(m));
        out.adam_v.push_back(std::move(v));
    }
    if (out.loss_history.size() != out.step) {
        setError(error, format("loss history has {} entries for {} "
                               "completed steps", out.loss_history.size(),
                               out.step));
        return LoadStatus::Corrupt;
    }
    return LoadStatus::Ok;
}

std::string
checkpointFileName(uint64_t step)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%08llu%s", kFilePrefix,
                  static_cast<unsigned long long>(step), kFileSuffix);
    return buf;
}

std::vector<std::string>
listTrainCheckpoints(const std::string &dir)
{
    std::vector<std::string> names;
    for (const std::string &name : listFiles(dir, kFilePrefix)) {
        uint64_t step = 0;
        if (parseCheckpointName(name, step))
            names.push_back(name);
    }
    // Zero-padded fixed-width names sort lexicographically == by step,
    // but sort numerically anyway so >8-digit steps stay ordered.
    std::sort(names.begin(), names.end(),
              [](const std::string &a, const std::string &b) {
                  uint64_t sa = 0, sb = 0;
                  parseCheckpointName(a, sa);
                  parseCheckpointName(b, sb);
                  return sa < sb;
              });
    return names;
}

ResumeResult
resumeLatest(const std::string &dir, TrainingSnapshot &out)
{
    ResumeResult res;
    const std::vector<std::string> names = listTrainCheckpoints(dir);
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
        const std::string path = dir + "/" + *it;
        std::string error;
        const LoadStatus status =
            tryLoadTrainCheckpoint(path, out, &error);
        if (status == LoadStatus::Ok) {
            res.resumed = true;
            res.path = path;
            return res;
        }
        ++res.skipped_bad;
        res.diagnostics.push_back(format("{}: {} ({})", *it,
                                         loadStatusName(status), error));
    }
    return res;
}

void
pruneCheckpoints(const std::string &dir, size_t keep_last)
{
    if (keep_last == 0)
        keep_last = 1;
    const std::vector<std::string> names = listTrainCheckpoints(dir);
    if (names.size() <= keep_last)
        return;
    for (size_t i = 0; i + keep_last < names.size(); ++i)
        removeFile(dir + "/" + names[i]);
}

size_t
CheckpointManager::resume(const std::vector<Parameter *> &params,
                          Adam &opt, Rng &data_rng,
                          std::vector<double> &loss_history,
                          StepGuard &guard)
{
    if (!cfg_.resumeEnabled())
        return 0;
    TrainingSnapshot snap;
    const ResumeResult res = resumeLatest(cfg_.dir, snap);
    for (const std::string &diag : res.diagnostics)
        warn("skipping unusable checkpoint {}", diag);
    if (!res.resumed) {
        inform("no usable checkpoint in '{}', starting fresh", cfg_.dir);
        return 0;
    }
    std::string error;
    const LoadStatus status =
        applySnapshot(snap, params, opt, data_rng, &error);
    if (status != LoadStatus::Ok)
        DOTA_FATAL("checkpoint '{}' verified but does not fit this "
                   "model ({}): {} — is --checkpoint-dir pointing at a "
                   "different run?",
                   res.path, loadStatusName(status), error);
    loss_history = snap.loss_history;
    guard.restore(snap.guard);
    inform("resumed from '{}' at step {}", res.path, snap.step);
    return static_cast<size_t>(snap.step);
}

void
CheckpointManager::onStepComplete(uint64_t completed_steps,
                                  const std::vector<Parameter *> &params,
                                  const Adam &opt, const Rng &data_rng,
                                  const std::vector<double> &loss_history,
                                  const StepGuard &guard)
{
    if (!cfg_.savingEnabled() || completed_steps % cfg_.every != 0)
        return;
    if (!ensureDir(cfg_.dir))
        DOTA_FATAL("cannot create checkpoint directory '{}'", cfg_.dir);
    const TrainingSnapshot snap =
        captureSnapshot(completed_steps, params, opt, data_rng,
                        loss_history, guard.stats());
    saveTrainCheckpoint(snap,
                        cfg_.dir + "/" + checkpointFileName(completed_steps));
    pruneCheckpoints(cfg_.dir, cfg_.keep_last);
}

} // namespace dota
