/**
 * @file
 * Whole-file IO helpers with crash-safe (atomic) writes.
 *
 * A checkpoint that a crash can leave half-written is worse than no
 * checkpoint at all, so every durable file in DOTA goes through
 * writeFileAtomic: the bytes land in a sibling temp file which is then
 * rename(2)d over the destination. On POSIX the rename is atomic — a
 * reader (or a resumed trainer) sees either the old complete file or
 * the new complete file, never a torn mixture. The temp file is removed
 * on any failure path.
 */
#pragma once

#include <string>
#include <vector>

namespace dota {

/** Store @p msg in @p error when the caller asked for a diagnostic. */
void setError(std::string *error, std::string msg);

/**
 * Write @p bytes to @p path atomically (temp file + fsync + rename).
 * Returns true on success; on failure returns false and, when
 * @p error is non-null, stores a human-readable reason.
 */
bool writeFileAtomic(const std::string &path, const std::string &bytes,
                     std::string *error = nullptr);

/**
 * Read all of @p path into @p out. Returns true on success; on failure
 * returns false and, when @p error is non-null, stores the reason.
 */
bool readFile(const std::string &path, std::string &out,
              std::string *error = nullptr);

/**
 * Names (not paths) of regular files directly under @p dir whose name
 * starts with @p prefix, sorted lexicographically. Missing or unreadable
 * directories yield an empty list.
 */
std::vector<std::string> listFiles(const std::string &dir,
                                   const std::string &prefix = "");

/** Create @p dir (and parents). Returns false if creation fails. */
bool ensureDir(const std::string &dir);

/** Remove a file if it exists; returns true when gone afterwards. */
bool removeFile(const std::string &path);

/** True when @p path exists (any file type). */
bool fileExists(const std::string &path);

} // namespace dota
