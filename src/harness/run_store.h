// Disk tier of the run cache: finished simulation cells serialized as
// compact, versioned binary records under a cache directory, keyed by
// their 128-bit RunKey. A record survives the process, so repeated bench
// invocations (figure regeneration, CI golden runs) reuse each other's
// simulations — and stores filled on different hosts merge into one
// (merge_run_store).
//
// Layout: <dir>/<hi-byte-of-key>/<032-hex-key>.run, one cell per file,
// written atomically (common/fsio.h) so concurrent writers and killed
// processes never leave a partial record in place. Records carry a format
// version, the full key, and a trailing checksum; load() treats any
// mismatch — version bump, truncation, bit rot, foreign key — as a miss
// and returns nothing, so corruption can only cost a recompute, never a
// wrong result.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "harness/run_key.h"
#include "harness/runner.h"

namespace clusmt::harness {

/// Bump whenever the record layout changes — a field added to RunResult or
/// core::SimStats, a string re-ordered, kMaxThreads resized. Old records
/// then read as misses instead of deserializing garbage. run_store_test
/// pins one record's bytes, so it fails on any layout change until the pin
/// is retaken.
inline constexpr std::uint32_t kRunStoreFormatVersion = 2;  // v2: ClusterShape keys

/// Serializes `result` (with its `key`) to a self-contained record.
[[nodiscard]] std::string encode_run_record(const RunKey& key,
                                            const RunResult& result);

/// Decodes a record, validating magic, version, embedded key (must equal
/// `key`), and checksum. Any failure yields nullopt.
[[nodiscard]] std::optional<RunResult> decode_run_record(
    const RunKey& key, std::string_view record);

/// Options for gc_run_store. Caps of 0 mean "unlimited" for that axis; a
/// dry run reports what would be deleted without touching the directory.
struct GcOptions {
  std::uint64_t max_bytes = 0;
  std::uint64_t max_files = 0;
  bool dry_run = false;
};

/// Outcome of one GC sweep over a run-store directory.
struct GcResult {
  std::uint64_t scanned_files = 0;
  std::uint64_t scanned_bytes = 0;
  std::uint64_t deleted_files = 0;       // dry runs count would-be deletions
  std::uint64_t deleted_bytes = 0;
  std::uint64_t deleted_temp_files = 0;  // orphaned writer temps, ditto
  std::uint64_t removed_dirs = 0;        // emptied key-prefix subdirectories
};

/// Age past which gc_run_store deletes a writer's temp file
/// (`<key>.run.tmp.<pid>.<n>`, common/fsio.h). A live writer holds one for
/// milliseconds; an older one was orphaned by a crash between fsync and
/// rename, and nothing else ever deletes it.
inline constexpr std::chrono::hours kOrphanTempAge{1};

/// Options for merge_run_store. A dry run reports what a merge would do
/// without writing anything.
struct MergeOptions {
  bool dry_run = false;
};

/// Outcome of unioning one source store into a destination store.
struct MergeResult {
  std::uint64_t scanned = 0;    // .run records seen in the source
  std::uint64_t copied = 0;     // new records written to the destination
  std::uint64_t identical = 0;  // already present, byte-identical: skipped
  std::uint64_t conflicts = 0;  // present with different bytes: kept dest
  std::uint64_t invalid = 0;    // failed key/checksum validation: skipped
};

/// Unions `from` into `into` (the gather step of a sweep split across
/// hosts, each filling its own cache dir): every valid source record
/// absent from the destination is copied atomically; records already
/// present are compared byte-for-byte and skipped, with byte-level
/// disagreement counted as a conflict (the destination record wins —
/// records are content-keyed, so a conflict means corruption or a stale
/// format, never two valid answers).
/// Source records whose embedded key or checksum fails validation are
/// skipped as invalid rather than propagated.
[[nodiscard]] MergeResult merge_run_store(const std::string& into,
                                          const std::string& from,
                                          const MergeOptions& options = {});

/// Parses the 32-hex-digit basename of a record path (as produced by
/// RunStore::path_of) back into its key; false on malformed names.
[[nodiscard]] bool parse_record_name(const std::string& basename,
                                     RunKey& key);

/// Process-wide count of reads that found a record on disk but rejected it
/// during validation (bad magic/version/key/checksum, truncation). Every
/// such record silently costs a recompute; the sweep progress line surfaces
/// the total as "N corrupt records ignored" so bit rot and format drift are
/// visible instead of just slow.
[[nodiscard]] std::uint64_t run_store_corrupt_reads();

/// Size/count-capped LRU sweep over a run-store directory: scans every
/// `*.run` record, and while the store exceeds `max_bytes`/`max_files`
/// deletes records oldest-mtime-first (a record's mtime is its last write;
/// readers that want LRU-by-use can touch records on load). Writer temp
/// files (`*.run.tmp.*`) older than kOrphanTempAge are deleted whatever the
/// caps. Emptied prefix subdirectories are pruned. A missing directory is
/// an empty store. Never deletes anything else.
[[nodiscard]] GcResult gc_run_store(const std::string& dir,
                                    const GcOptions& options);

class RunStore {
 public:
  /// `dir` is created (with parents) on first save; a missing dir just
  /// means every load misses.
  explicit RunStore(std::string dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Record path of `key` under the store's directory.
  [[nodiscard]] std::string path_of(const RunKey& key) const;

  /// Reads the cell for `key`; nullopt when absent, unreadable, or the
  /// record fails validation (never throws — a bad record is a miss).
  [[nodiscard]] std::optional<RunResult> load(const RunKey& key) const;

  /// Spills a finished cell. Best-effort: returns false on I/O failure
  /// (read-only dir, disk full) and leaves any existing record intact.
  bool save(const RunKey& key, const RunResult& result) const;

 private:
  std::string dir_;
};

}  // namespace clusmt::harness
