/**
 * @file
 * Versioned, checksummed record-file container for checkpoints.
 *
 * Layout (all integers little-endian, as written by the host — DOTA
 * checkpoints are host-local artifacts, not an interchange format):
 *
 *   Header := magic "DOTC" | u32 container_version (=1)
 *           | u32 kind (caller fourcc) | u32 schema_version (caller's)
 *   Record := u32 name_len | name bytes
 *           | u64 payload_len | payload bytes
 *           | u32 record_crc        -- CRC32 of this record's
 *                                      name_len..payload bytes
 *   Footer := magic "CEND" | u64 record_count | u32 file_crc
 *                                  -- CRC32 of every byte before file_crc
 *
 * The double checksum distinguishes failure modes: a missing/garbled
 * footer means the file was truncated or torn mid-write, a failing
 * record or file CRC means bytes were corrupted in place. Readers never
 * trust a length field beyond the buffer, so arbitrary garbage parses
 * to a status instead of UB. The builder produces the complete byte
 * buffer in memory so callers can hand it to writeFileAtomic.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace dota {

/** Outcome of parsing a record file. */
enum class RecordFileStatus
{
    Ok,         ///< structure and every checksum verified
    IoError,    ///< file missing or unreadable
    BadMagic,   ///< not a DOTA record file at all
    BadVersion, ///< container version newer than this build understands
    Truncated,  ///< footer missing/partial: truncated or torn write
    Corrupt,    ///< checksum or structural mismatch: bytes damaged
};

/** Parsed record file: the header identity plus named byte records. */
struct RecordFile
{
    uint32_t kind = 0;           ///< caller fourcc from the header
    uint32_t schema_version = 0; ///< caller schema version

    std::vector<std::pair<std::string, std::string>> records;

    /** Payload of the first record named @p name, or nullptr. */
    const std::string *find(std::string_view name) const;
};

/** Pack a fourcc like "TRNS" into the header kind field. */
constexpr uint32_t
recordKind(char a, char b, char c, char d)
{
    return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
           static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
           static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
           static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/** Append the host bytes of integer @p v to @p buf (payload codec). */
template <typename T>
void
appendInt(std::string &buf, T v)
{
    char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    buf.append(raw, sizeof(T));
}

/**
 * Read integer @p v at @p off and advance it; false, with nothing read,
 * when @p buf is too short.
 */
template <typename T>
bool
readInt(const std::string &buf, size_t &off, T &v)
{
    if (off + sizeof(T) > buf.size())
        return false;
    std::memcpy(&v, buf.data() + off, sizeof(T));
    off += sizeof(T);
    return true;
}

/** Incrementally build a record file byte buffer. */
class RecordFileBuilder
{
  public:
    RecordFileBuilder(uint32_t kind, uint32_t schema_version);

    /** Append one named record. */
    void add(std::string_view name, std::string_view payload);

    /** Append the footer and return the finished buffer. */
    std::string finish();

  private:
    std::string buf_;
    uint64_t count_ = 0;
    bool finished_ = false;
};

/**
 * Parse @p bytes into @p out, verifying structure, every record CRC and
 * the footer CRC. On any status other than Ok, @p error (when non-null)
 * receives a diagnostic and @p out is left unspecified.
 */
RecordFileStatus parseRecordFile(const std::string &bytes, RecordFile &out,
                                 std::string *error = nullptr);

/** readFile + parseRecordFile. */
RecordFileStatus readRecordFile(const std::string &path, RecordFile &out,
                                std::string *error = nullptr);

/**
 * Cheap sniff: true when @p path exists, is at least header-sized and
 * starts with the record-file magic and a known container version.
 * (Full integrity is only established by readRecordFile.)
 */
bool looksLikeRecordFile(const std::string &path);

} // namespace dota
