// Durable file writes shared by every on-disk artifact the project emits
// (RunStore cell records, CSV/JSON tables). A plain ofstream left a
// truncated file when the process died mid-write; readers — the golden
// regression gate, a second process sharing a run cache — would then see a
// partial document and misreport it as a regression or corruption.
#pragma once

#include <string>
#include <string_view>

namespace clusmt {

/// Writes `content` to `path` atomically: the bytes go to a uniquely named
/// temporary file in the same directory, are fsync'd, and the temp file is
/// renamed over `path`. Readers therefore observe either the old file or
/// the complete new one, never a prefix. Returns false (and removes the
/// temp file) on any I/O failure; the previous `path` contents survive.
/// A crash between fsync and rename orphans the temp file
/// (`<path>.tmp.<pid>.<n>`); for run-store records, gc_run_store deletes
/// it once it is older than harness::kOrphanTempAge.
///
/// Carries the `fsio.write` / `fsio.rename` fault points
/// (common/faultpoint.h): open/rename failure, ENOSPC mid-write, a torn
/// write that reports success, and crashes before the write or between
/// fsync and rename are all injectable for recovery testing.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     std::string_view content);

}  // namespace clusmt
