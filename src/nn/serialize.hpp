/**
 * @file
 * Binary checkpointing of Module parameters.
 *
 * Format (version 2): a checksummed record-file container
 * (common/recordfile.hpp, kind "MODL") with one record per parameter —
 * name, shape and raw float payload, in collectParams order — a CRC32
 * per record and a whole-file footer checksum. Files are written
 * atomically (temp + rename) so a crash mid-save never destroys the
 * previous checkpoint.
 *
 * Loading verifies checksums, names and shapes, and reports *what* is
 * wrong through LoadStatus instead of killing the process: corruption,
 * truncation, a version from a different build, and architecture
 * mismatches are all distinguishable so recovery code (e.g.
 * resumeLatest in train/checkpoint.hpp) can fall back to an older file.
 * The fatal() wrappers remain for callers that have no fallback.
 */
#pragma once

#include <cstdint>
#include <string>

#include "common/recordfile.hpp"
#include "nn/param.hpp"

namespace dota {

/** Outcome of loading a checkpoint. */
enum class LoadStatus
{
    Ok,             ///< parameters restored, all checksums verified
    IoError,        ///< file missing or unreadable
    NotACheckpoint, ///< not a DOTA checkpoint file
    BadVersion,     ///< written by an incompatible format version
    Truncated,      ///< footer missing: truncated or torn write
    Corrupt,        ///< a checksum failed: bytes damaged in place
    ArchMismatch,   ///< parameter names/shapes differ from the module
};

/** Display name, e.g. "arch-mismatch". */
std::string loadStatusName(LoadStatus status);

/**
 * readRecordFile plus the identity checks every checkpoint loader
 * shares: a container failure maps onto its LoadStatus, a record file
 * of another @p kind is NotACheckpoint, and another @p schema_version is
 * BadVersion. @p what names the checkpoint kind in diagnostics.
 */
LoadStatus readCheckpointFile(const std::string &path, uint32_t kind,
                              uint32_t schema_version, const char *what,
                              RecordFile &out, std::string *error);

/**
 * Save every parameter of @p module to @p path, atomically. fatal() on
 * IO error.
 */
void saveCheckpoint(Module &module, const std::string &path);

/**
 * Load a checkpoint saved by saveCheckpoint into @p module. On any
 * status other than Ok the module's parameters are left untouched and
 * @p error (when non-null) receives a diagnostic; an ArchMismatch
 * diagnostic names both the expected and the found parameter
 * name/shape.
 */
LoadStatus tryLoadCheckpoint(Module &module, const std::string &path,
                             std::string *error = nullptr);

/**
 * Load a checkpoint saved by saveCheckpoint into @p module. fatal() on
 * IO error, format error, or architecture mismatch.
 */
void loadCheckpoint(Module &module, const std::string &path);

/**
 * True when @p path exists and carries a complete, well-formed model
 * checkpoint header (magic, container version and checkpoint kind).
 * Short, empty or foreign files are rejected; payload integrity is only
 * established by tryLoadCheckpoint.
 */
bool isCheckpoint(const std::string &path);

// --- Matrix payload codec (shared with train/checkpoint) ---

/** Encode rows, cols and raw float data into a byte payload. */
std::string encodeMatrix(const Matrix &m);

/** Decode an encodeMatrix payload; false when malformed. */
bool decodeMatrix(const std::string &payload, Matrix &out);

} // namespace dota
