// clusmt-cache gc: size-cap / LRU-by-mtime sweep over a persistent run
// store (harness/run_store.h). The store itself never evicts, so paper-
// scale grids grow cache dirs without bound; this tool (or a cron job
// around it) keeps them within budget.
//
// Usage:
//   cache_gc gc    --dir DIR [--max-mb N | --max-bytes N] [--max-files N]
//                  [--dry-run]
//   cache_gc stats --dir DIR
//
// `gc` deletes the oldest records (by mtime) until the store fits every
// given cap; with no cap it deletes no record. Either way it deletes the
// temp files crashed writers orphaned (older than kOrphanTempAge). `stats`
// prints the store's record count and size. --dir falls back to
// $CLUSMT_CACHE_DIR, matching the bench flags. Only `*.run` records and
// orphaned `*.run.tmp.*` files are ever touched; emptied key-prefix
// subdirectories are pruned.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/cli.h"
#include "harness/run_store.h"

using namespace clusmt;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s gc    --dir DIR [--max-mb N | --max-bytes N]\n"
      "                [--max-files N] [--dry-run]\n"
      "       %s stats --dir DIR\n"
      "--dir falls back to $CLUSMT_CACHE_DIR.\n",
      argv0, argv0);
  std::exit(2);
}

[[nodiscard]] double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.positional().size() != 1) usage(argv[0]);
  const std::string& command = args.positional()[0];

  std::string dir = args.get_string("dir", "");
  if (dir.empty()) {
    if (const char* env = std::getenv("CLUSMT_CACHE_DIR")) dir = env;
  }
  if (dir.empty()) {
    std::fprintf(stderr, "error: no --dir given and CLUSMT_CACHE_DIR unset\n");
    return 2;
  }

  if (command == "stats") {
    // A capless dry run is exactly a scan.
    const harness::GcResult r =
        harness::gc_run_store(dir, {.dry_run = true});
    std::printf("%s: %llu records, %.1f MB\n", dir.c_str(),
                static_cast<unsigned long long>(r.scanned_files),
                mb(r.scanned_bytes));
    return 0;
  }
  if (command != "gc") usage(argv[0]);

  // Caps are >= 0 (0 = unlimited); --max-mb stops where its byte count
  // would no longer fit in 64 bits.
  constexpr std::int64_t kMaxMb =
      static_cast<std::int64_t>(std::numeric_limits<std::uint64_t>::max() >>
                                20);
  const std::int64_t max_bytes = args.get_int("max-bytes", 0, 0);
  const std::int64_t max_mb = args.get_int("max-mb", 0, 0, kMaxMb);
  const std::int64_t max_files = args.get_int("max-files", 0, 0);
  harness::GcOptions options;
  options.max_bytes = static_cast<std::uint64_t>(max_bytes);
  if (max_mb != 0) {
    if (options.max_bytes != 0) {
      std::fprintf(stderr, "error: give --max-mb or --max-bytes, not both\n");
      return 2;
    }
    options.max_bytes = static_cast<std::uint64_t>(max_mb) * 1024 * 1024;
  }
  options.max_files = static_cast<std::uint64_t>(max_files);
  options.dry_run = args.get_bool("dry-run", false);

  const harness::GcResult r = harness::gc_run_store(dir, options);
  std::printf(
      "%s: scanned %llu records (%.1f MB); %s %llu records (%.1f MB)%s\n",
      dir.c_str(), static_cast<unsigned long long>(r.scanned_files),
      mb(r.scanned_bytes), options.dry_run ? "would delete" : "deleted",
      static_cast<unsigned long long>(r.deleted_files), mb(r.deleted_bytes),
      options.dry_run ? " [dry run]" : "");
  if (r.deleted_temp_files > 0) {
    std::printf("%s %llu orphaned temp files\n",
                options.dry_run ? "would delete" : "deleted",
                static_cast<unsigned long long>(r.deleted_temp_files));
  }
  if (r.removed_dirs > 0) {
    std::printf("pruned %llu empty prefix dirs\n",
                static_cast<unsigned long long>(r.removed_dirs));
  }
  return 0;
}
