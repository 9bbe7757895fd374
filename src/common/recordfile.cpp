/**
 * @file
 * Implementation of the checksummed record-file container.
 */
#include "common/recordfile.hpp"

#include <cstring>
#include <fstream>

#include "common/crc32.hpp"
#include "common/fileio.hpp"
#include "common/logging.hpp"

namespace dota {

namespace {

constexpr char kMagic[4] = {'D', 'O', 'T', 'C'};
constexpr char kFooterMagic[4] = {'C', 'E', 'N', 'D'};
constexpr uint32_t kContainerVersion = 1;
// magic + container version + kind + schema version.
constexpr size_t kHeaderSize = 4 + 4 + 4 + 4;
// footer magic + record count + file crc.
constexpr size_t kFooterSize = 4 + 8 + 4;

} // namespace

const std::string *
RecordFile::find(std::string_view name) const
{
    for (const auto &[n, payload] : records)
        if (n == name)
            return &payload;
    return nullptr;
}

RecordFileBuilder::RecordFileBuilder(uint32_t kind, uint32_t schema_version)
{
    buf_.append(kMagic, 4);
    appendInt(buf_, kContainerVersion);
    appendInt(buf_, kind);
    appendInt(buf_, schema_version);
}

void
RecordFileBuilder::add(std::string_view name, std::string_view payload)
{
    DOTA_ASSERT(!finished_, "add() after finish()");
    const size_t record_start = buf_.size();
    appendInt(buf_, static_cast<uint32_t>(name.size()));
    buf_.append(name.data(), name.size());
    appendInt(buf_, static_cast<uint64_t>(payload.size()));
    buf_.append(payload.data(), payload.size());
    appendInt(buf_, crc32(buf_.data() + record_start,
                          buf_.size() - record_start));
    ++count_;
}

std::string
RecordFileBuilder::finish()
{
    DOTA_ASSERT(!finished_, "finish() called twice");
    finished_ = true;
    buf_.append(kFooterMagic, 4);
    appendInt(buf_, count_);
    appendInt(buf_, crc32(buf_));
    return std::move(buf_);
}

RecordFileStatus
parseRecordFile(const std::string &bytes, RecordFile &out,
                std::string *error)
{
    out = RecordFile{};
    if (bytes.size() < 4 ||
        std::memcmp(bytes.data(), kMagic, 4) != 0) {
        setError(error, "not a DOTA record file (bad or missing magic)");
        return RecordFileStatus::BadMagic;
    }
    if (bytes.size() < kHeaderSize) {
        setError(error, format("header truncated: {} bytes < {}",
                               bytes.size(), kHeaderSize));
        return RecordFileStatus::Truncated;
    }
    size_t off = 4;
    uint32_t container = 0;
    readInt(bytes, off, container);
    if (container != kContainerVersion) {
        setError(error, format("container version {} unsupported "
                               "(this build reads version {})",
                               container, kContainerVersion));
        return RecordFileStatus::BadVersion;
    }
    readInt(bytes, off, out.kind);
    readInt(bytes, off, out.schema_version);

    // Verify the footer first: its absence means the write never
    // completed (truncation / torn write), in which case record CRCs
    // would misleadingly report corruption.
    if (bytes.size() < kHeaderSize + kFooterSize ||
        std::memcmp(bytes.data() + bytes.size() - kFooterSize,
                    kFooterMagic, 4) != 0) {
        setError(error, "footer missing: file truncated or write torn");
        return RecordFileStatus::Truncated;
    }
    size_t foot = bytes.size() - kFooterSize + 4;
    uint64_t footer_count = 0;
    uint32_t file_crc = 0;
    readInt(bytes, foot, footer_count);
    readInt(bytes, foot, file_crc);
    const uint32_t actual_crc = crc32(bytes.data(), bytes.size() - 4);
    if (actual_crc != file_crc) {
        setError(error, format("file checksum mismatch: stored {}, "
                               "computed {}", file_crc, actual_crc));
        return RecordFileStatus::Corrupt;
    }

    const size_t body_end = bytes.size() - kFooterSize;
    while (off < body_end) {
        const size_t record_start = off;
        uint32_t name_len = 0;
        if (!readInt(bytes, off, name_len) ||
            name_len > body_end - off) {
            setError(error, "record name overruns file body");
            return RecordFileStatus::Corrupt;
        }
        std::string name = bytes.substr(off, name_len);
        off += name_len;
        uint64_t payload_len = 0;
        if (!readInt(bytes, off, payload_len) ||
            payload_len > body_end - off) {
            setError(error, format("record '{}' payload overruns file "
                                   "body", name));
            return RecordFileStatus::Corrupt;
        }
        std::string payload = bytes.substr(off, payload_len);
        off += payload_len;
        uint32_t stored_crc = 0;
        if (off + 4 > body_end || !readInt(bytes, off, stored_crc)) {
            setError(error, format("record '{}' checksum missing", name));
            return RecordFileStatus::Corrupt;
        }
        const uint32_t record_crc = crc32(
            bytes.data() + record_start, off - 4 - record_start);
        if (record_crc != stored_crc) {
            setError(error, format("record '{}' checksum mismatch: "
                                   "stored {}, computed {}",
                                   name, stored_crc, record_crc));
            return RecordFileStatus::Corrupt;
        }
        out.records.emplace_back(std::move(name), std::move(payload));
    }
    if (out.records.size() != footer_count) {
        setError(error, format("footer records {} != parsed records {}",
                               footer_count, out.records.size()));
        return RecordFileStatus::Corrupt;
    }
    return RecordFileStatus::Ok;
}

RecordFileStatus
readRecordFile(const std::string &path, RecordFile &out,
               std::string *error)
{
    std::string bytes;
    if (!readFile(path, bytes, error))
        return RecordFileStatus::IoError;
    return parseRecordFile(bytes, out, error);
}

bool
looksLikeRecordFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    char header[kHeaderSize] = {};
    is.read(header, kHeaderSize);
    if (!is)
        return false; // shorter than a header cannot be a record file
    uint32_t container = 0;
    std::memcpy(&container, header + 4, 4);
    return std::memcmp(header, kMagic, 4) == 0 &&
           container == kContainerVersion;
}

} // namespace dota
