/**
 * @file
 * Implementation of parameter checkpointing (record-file format v2).
 */
#include "nn/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/fileio.hpp"
#include "common/logging.hpp"
#include "common/recordfile.hpp"

namespace dota {

namespace {

constexpr uint32_t kModelKind = recordKind('M', 'O', 'D', 'L');
constexpr uint32_t kSchemaVersion = 2;

std::string
shapeStr(size_t rows, size_t cols)
{
    return format("{}x{}", rows, cols);
}

} // namespace

std::string
loadStatusName(LoadStatus status)
{
    switch (status) {
      case LoadStatus::Ok:
        return "ok";
      case LoadStatus::IoError:
        return "io-error";
      case LoadStatus::NotACheckpoint:
        return "not-a-checkpoint";
      case LoadStatus::BadVersion:
        return "bad-version";
      case LoadStatus::Truncated:
        return "truncated";
      case LoadStatus::Corrupt:
        return "corrupt";
      case LoadStatus::ArchMismatch:
        return "arch-mismatch";
    }
    DOTA_PANIC("unknown load status");
}

std::string
encodeMatrix(const Matrix &m)
{
    std::string payload;
    payload.reserve(16 + m.size() * sizeof(float));
    appendInt(payload, static_cast<uint64_t>(m.rows()));
    appendInt(payload, static_cast<uint64_t>(m.cols()));
    payload.append(reinterpret_cast<const char *>(m.data()),
                   m.size() * sizeof(float));
    return payload;
}

bool
decodeMatrix(const std::string &payload, Matrix &out)
{
    size_t off = 0;
    uint64_t rows = 0, cols = 0;
    if (!readInt(payload, off, rows) || !readInt(payload, off, cols))
        return false;
    // Guard the multiplication: a corrupt header must not allocate TBs.
    if (rows > (1u << 24) || cols > (1u << 24))
        return false;
    const size_t count = static_cast<size_t>(rows * cols);
    if (payload.size() != 16 + count * sizeof(float))
        return false;
    out = Matrix(static_cast<size_t>(rows), static_cast<size_t>(cols));
    std::memcpy(out.data(), payload.data() + 16, count * sizeof(float));
    return true;
}

void
saveCheckpoint(Module &module, const std::string &path)
{
    std::vector<Parameter *> params;
    module.collectParams(params);

    RecordFileBuilder builder(kModelKind, kSchemaVersion);
    for (Parameter *p : params)
        builder.add(p->name, encodeMatrix(p->value));

    std::string error;
    if (!writeFileAtomic(path, builder.finish(), &error))
        DOTA_FATAL("saving checkpoint failed: {}", error);
}

LoadStatus
readCheckpointFile(const std::string &path, uint32_t kind,
                   uint32_t schema_version, const char *what,
                   RecordFile &out, std::string *error)
{
    switch (readRecordFile(path, out, error)) {
      case RecordFileStatus::Ok:
        break;
      case RecordFileStatus::IoError:
        return LoadStatus::IoError;
      case RecordFileStatus::BadMagic:
        return LoadStatus::NotACheckpoint;
      case RecordFileStatus::BadVersion:
        return LoadStatus::BadVersion;
      case RecordFileStatus::Truncated:
        return LoadStatus::Truncated;
      case RecordFileStatus::Corrupt:
        return LoadStatus::Corrupt;
    }
    if (out.kind != kind) {
        setError(error, format("'{}' is a DOTA record file but not a {}",
                               path, what));
        return LoadStatus::NotACheckpoint;
    }
    if (out.schema_version != schema_version) {
        setError(error, format("{} schema version {} unsupported "
                               "(expected {})",
                               what, out.schema_version, schema_version));
        return LoadStatus::BadVersion;
    }
    return LoadStatus::Ok;
}

LoadStatus
tryLoadCheckpoint(Module &module, const std::string &path,
                  std::string *error)
{
    RecordFile file;
    const LoadStatus status = readCheckpointFile(
        path, kModelKind, kSchemaVersion, "model checkpoint", file, error);
    if (status != LoadStatus::Ok)
        return status;

    std::vector<Parameter *> params;
    module.collectParams(params);
    if (file.records.size() != params.size()) {
        setError(error,
                 format("checkpoint has {} parameter records, module "
                        "expects {}", file.records.size(), params.size()));
        return LoadStatus::ArchMismatch;
    }

    // Decode and validate everything before touching the module, so a
    // mismatch never leaves it half-loaded.
    std::vector<Matrix> values(params.size());
    for (size_t i = 0; i < params.size(); ++i) {
        const auto &[name, payload] = file.records[i];
        if (!decodeMatrix(payload, values[i])) {
            setError(error, format("parameter record '{}' has a "
                                   "malformed payload", name));
            return LoadStatus::Corrupt;
        }
        const Parameter *p = params[i];
        if (name != p->name || values[i].rows() != p->value.rows() ||
            values[i].cols() != p->value.cols()) {
            setError(error,
                     format("parameter #{}: checkpoint has '{}' ({}), "
                            "module expects '{}' ({})",
                            i, name,
                            shapeStr(values[i].rows(), values[i].cols()),
                            p->name,
                            shapeStr(p->value.rows(), p->value.cols())));
            return LoadStatus::ArchMismatch;
        }
    }
    for (size_t i = 0; i < params.size(); ++i)
        params[i]->value = std::move(values[i]);
    return LoadStatus::Ok;
}

void
loadCheckpoint(Module &module, const std::string &path)
{
    std::string error;
    const LoadStatus status = tryLoadCheckpoint(module, path, &error);
    if (status != LoadStatus::Ok)
        DOTA_FATAL("loading checkpoint '{}' failed ({}): {}", path,
                   loadStatusName(status), error);
}

bool
isCheckpoint(const std::string &path)
{
    if (!looksLikeRecordFile(path))
        return false;
    std::ifstream is(path, std::ios::binary);
    char header[16] = {};
    is.read(header, sizeof(header));
    if (!is)
        return false;
    uint32_t kind = 0;
    std::memcpy(&kind, header + 8, 4);
    return kind == kModelKind;
}

} // namespace dota
