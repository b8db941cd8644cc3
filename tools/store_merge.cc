// store_merge: unions run-store cache directories (harness/run_store.h).
// The gather half of a sweep split across hosts: each host runs a --filter
// slice of the suite into its own --cache-dir, the stores are merged into
// one, and a full sweep over the union simulates nothing.
//
// Usage:
//   store_merge <into> <from>... [--dry-run]
//
// Every valid source record absent from <into> is copied atomically;
// records already present are compared byte-for-byte and skipped. A byte
// mismatch under the same key is a conflict — corruption or a stale
// format, never two valid answers, since records are content-keyed — and
// the destination record wins. Exit status 1 when any conflict was seen or
// any record could not be written to <into>.
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "harness/run_store.h"

using namespace clusmt;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.positional().size() < 2) {
    std::fprintf(stderr,
                 "usage: %s <into> <from>... [--dry-run]\n"
                 "Unions each <from> run store into <into>; the destination "
                 "wins conflicts.\n",
                 argv[0]);
    return 2;
  }
  harness::MergeOptions options;
  options.dry_run = args.get_bool("dry-run", false);

  const std::string& into = args.positional()[0];
  harness::MergeResult total;
  for (std::size_t i = 1; i < args.positional().size(); ++i) {
    const std::string& from = args.positional()[i];
    const harness::MergeResult r =
        harness::merge_run_store(into, from, options);
    std::printf(
        "%s -> %s: %llu scanned, %llu %s, %llu identical, %llu conflicts, "
        "%llu invalid, %llu failed%s\n",
        from.c_str(), into.c_str(), static_cast<unsigned long long>(r.scanned),
        static_cast<unsigned long long>(r.copied),
        options.dry_run ? "would copy" : "copied",
        static_cast<unsigned long long>(r.identical),
        static_cast<unsigned long long>(r.conflicts),
        static_cast<unsigned long long>(r.invalid),
        static_cast<unsigned long long>(r.failed),
        options.dry_run ? " [dry run]" : "");
    total.scanned += r.scanned;
    total.copied += r.copied;
    total.identical += r.identical;
    total.conflicts += r.conflicts;
    total.invalid += r.invalid;
    total.failed += r.failed;
  }
  if (args.positional().size() > 2) {
    std::printf(
        "total: %llu scanned, %llu %s, %llu identical, %llu conflicts, "
        "%llu invalid, %llu failed\n",
        static_cast<unsigned long long>(total.scanned),
        static_cast<unsigned long long>(total.copied),
        options.dry_run ? "would copy" : "copied",
        static_cast<unsigned long long>(total.identical),
        static_cast<unsigned long long>(total.conflicts),
        static_cast<unsigned long long>(total.invalid),
        static_cast<unsigned long long>(total.failed));
  }
  return total.conflicts > 0 || total.failed > 0 ? 1 : 0;
}
