// Persistence tier of the run cache: record round-trips and pinned record
// bytes, cross-instance ("cross-process") reuse through a shared directory,
// corruption and version-bump fallback to recompute, concurrent writers,
// the sweep-level zero-simulation guarantee on a warm cache dir, merging
// stores filled on separate hosts, and garbage collection.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "common/faultpoint.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "harness/presets.h"
#include "harness/run_cache.h"
#include "harness/run_store.h"
#include "harness/sweep.h"
#include "stats_equal.h"
#include "trace/workload.h"

namespace clusmt::harness {
namespace {

namespace fs = std::filesystem;

/// Fresh unique cache dir per test, removed on teardown.
class RunStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (fs::temp_directory_path() / "clusmt_store_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

/// Every SimStats counter distinct (1, 2, 3, … in declaration order), so a
/// codec that drops, duplicates or reorders any counter fails a round trip.
core::SimStats distinct_stats() {
  constexpr std::size_t kCounters =
      sizeof(core::SimStats) / sizeof(std::uint64_t);
  std::array<std::uint64_t, kCounters> counters{};
  for (std::size_t i = 0; i < kCounters; ++i) counters[i] = i + 1;
  return std::bit_cast<core::SimStats>(counters);
}

RunResult sample_result(double salt) {
  RunResult r;
  r.workload = "wl-α";  // non-ASCII survives the byte-exact string encoding
  r.category = "ISPEC00";
  r.type = "ILP";
  r.stats = distinct_stats();
  r.ipc[0] = 1.25 + salt;
  r.ipc[1] = 0.75;
  r.ipc[2] = 0.5;
  r.ipc[3] = 0.125;
  r.throughput = 2.0 + salt;
  r.fairness = 0.9;
  return r;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void expect_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.category, b.category);
  EXPECT_EQ(a.type, b.type);
  core::expect_stats_equal(a.stats, b.stats, "record");
  for (int t = 0; t < kMaxThreads; ++t) EXPECT_EQ(a.ipc[t], b.ipc[t]);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.fairness, b.fairness);
}

// ---- Record encoding -----------------------------------------------------

TEST_F(RunStoreTest, RecordRoundTripsEveryField) {
  const RunKey key{0x0123456789abcdefull, 0xfedcba9876543210ull};
  const RunResult original = sample_result(0.5);
  const std::string record = encode_run_record(key, original);

  const auto decoded = decode_run_record(key, record);
  ASSERT_TRUE(decoded.has_value());
  expect_equal(original, *decoded);
}

// The record bytes of one fixed cell, pinned. A round trip cannot see a
// layout change that encoder and decoder make together (a counter added,
// dropped or reordered in both); this can, and such a change must come
// with a kRunStoreFormatVersion bump and a new pin.
TEST_F(RunStoreTest, RecordBytesArePinned) {
  const RunKey key{0x0123456789abcdefull, 0xfedcba9876543210ull};
  const std::string record = encode_run_record(key, sample_result(0.5));
  Fnv1a digest;
  digest.add_bytes(record.data(), record.size());
  EXPECT_EQ(record.size(), 391u);
  EXPECT_EQ(digest.digest(), 0x046830dc6a72298aull)
      << "record layout changed: bump kRunStoreFormatVersion, then re-pin";
}

TEST_F(RunStoreTest, DecodeRejectsForeignKeyAndGarbage) {
  const RunKey key{1, 2};
  const std::string record = encode_run_record(key, sample_result(0.0));

  EXPECT_FALSE(decode_run_record(RunKey{1, 3}, record).has_value());
  EXPECT_FALSE(decode_run_record(key, "").has_value());
  EXPECT_FALSE(decode_run_record(key, "not a record").has_value());
}

TEST_F(RunStoreTest, DecodeRejectsTruncationAndBitFlips) {
  const RunKey key{7, 8};
  const std::string record = encode_run_record(key, sample_result(0.25));

  for (const std::size_t cut : {record.size() - 1, record.size() / 2,
                                std::size_t{12}}) {
    EXPECT_FALSE(decode_run_record(key, record.substr(0, cut)).has_value())
        << "truncated to " << cut << " bytes";
  }
  // A flipped bit anywhere — header, payload, or checksum — invalidates.
  for (const std::size_t at : {std::size_t{9}, record.size() / 2,
                               record.size() - 3}) {
    std::string corrupt = record;
    corrupt[at] ^= 0x40;
    EXPECT_FALSE(decode_run_record(key, corrupt).has_value())
        << "bit flip at byte " << at;
  }
  // Trailing junk after a valid record is corruption too.
  EXPECT_FALSE(decode_run_record(key, record + "x").has_value());
}

TEST_F(RunStoreTest, VersionBumpReadsAsMiss) {
  const RunKey key{3, 4};
  std::string record = encode_run_record(key, sample_result(0.0));
  ASSERT_TRUE(decode_run_record(key, record).has_value());
  // Byte 4 is the low byte of the little-endian format version.
  record[4] = static_cast<char>(kRunStoreFormatVersion + 1);
  EXPECT_FALSE(decode_run_record(key, record).has_value());
}

// ---- RunStore files ------------------------------------------------------

TEST_F(RunStoreTest, SaveThenLoadAcrossStoreInstances) {
  const RunKey key{0xaa, 0xbb};
  const RunResult original = sample_result(1.0);
  {
    const RunStore writer(dir_);
    ASSERT_TRUE(writer.save(key, original));
  }
  const RunStore reader(dir_);
  const auto loaded = reader.load(key);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(original, *loaded);

  EXPECT_FALSE(reader.load(RunKey{0xaa, 0xcc}).has_value());
}

TEST_F(RunStoreTest, TruncatedFileOnDiskIsAMiss) {
  const RunKey key{5, 6};
  const RunStore store(dir_);
  ASSERT_TRUE(store.save(key, sample_result(0.0)));

  const std::string path = store.path_of(key);
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size / 2);
  EXPECT_FALSE(store.load(key).has_value());
}

TEST_F(RunStoreTest, LeavesNoTempFilesBehind) {
  const RunStore store(dir_);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(store.save(RunKey{i, i}, sample_result(0.0)));
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
    if (entry.is_regular_file()) {
      EXPECT_EQ(entry.path().extension(), ".run") << entry.path();
    }
  }
}

// ---- RunCache + store ----------------------------------------------------

TEST_F(RunStoreTest, SecondCacheInstanceLoadsInsteadOfComputing) {
  const RunKey key{11, 22};
  std::atomic<int> computes{0};
  const auto compute = [&] {
    computes.fetch_add(1);
    return sample_result(2.0);
  };

  RunCache first;
  first.set_store_dir(dir_);
  (void)first.get_or_run(key, compute);
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(first.misses(), 1u);
  EXPECT_EQ(first.disk_hits(), 0u);

  // A fresh cache on the same dir — a new process, effectively — loads the
  // persisted record and never invokes compute.
  RunCache second;
  second.set_store_dir(dir_);
  const RunResult loaded = second.get_or_run(key, compute);
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(second.misses(), 0u);
  EXPECT_EQ(second.disk_hits(), 1u);
  expect_equal(sample_result(2.0), loaded);

  // Memory tier still answers repeats without touching the disk counter.
  (void)second.get_or_run(key, compute);
  EXPECT_EQ(second.hits(), 1u);
  EXPECT_EQ(second.disk_hits(), 1u);
}

TEST_F(RunStoreTest, CorruptRecordFallsBackToCompute) {
  const RunKey key{33, 44};
  RunCache first;
  first.set_store_dir(dir_);
  (void)first.get_or_run(key, [] { return sample_result(0.0); });

  // Mangle the record in place.
  const std::string path = RunStore(dir_).path_of(key);
  std::ofstream(path, std::ios::binary) << "corrupted";

  RunCache second;
  second.set_store_dir(dir_);
  std::atomic<int> computes{0};
  (void)second.get_or_run(key, [&] {
    computes.fetch_add(1);
    return sample_result(3.0);
  });
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(second.misses(), 1u);
  EXPECT_EQ(second.disk_hits(), 0u);

  // ... and the recompute healed the record for the next instance.
  RunCache third;
  third.set_store_dir(dir_);
  expect_equal(sample_result(3.0),
               third.get_or_run(key, [] { return sample_result(9.0); }));
  EXPECT_EQ(third.disk_hits(), 1u);
}

TEST_F(RunStoreTest, ConcurrentWritersToOneDirAgree) {
  // Two caches (processes) x 8 workers race over the same keys in one dir;
  // every answer must be the deterministic function of the key.
  RunCache a;
  RunCache b;
  a.set_store_dir(dir_);
  b.set_store_dir(dir_);

  const auto value_of = [](std::uint64_t k) {
    RunResult r = sample_result(0.0);
    r.throughput = static_cast<double>(k) * 1.5;
    return r;
  };

  ThreadPool pool(8);
  std::vector<std::future<RunResult>> futures;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t k = 0; k < 8; ++k) {
      RunCache& cache = (round + k) % 2 == 0 ? a : b;
      futures.push_back(pool.submit_task([&cache, k, value_of] {
        return cache.get_or_run(RunKey{k, ~k}, [&] { return value_of(k); });
      }));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const std::uint64_t k = i % 8;
    EXPECT_DOUBLE_EQ(futures[i].get().throughput,
                     static_cast<double>(k) * 1.5);
  }
  // Each key computed at most once per cache (the store may have saved
  // either copy; both encode the same bytes).
  EXPECT_LE(a.misses() + b.misses(), 16u);
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_TRUE(RunStore(dir_).load(RunKey{k, ~k}).has_value());
  }
}

// ---- Injected-fault recovery (common/faultpoint.h) -----------------------

TEST_F(RunStoreTest, EnospcSaveFailsCleanlyAndKeepsThePriorRecord) {
  const RunKey key{21, 42};
  const RunStore store(dir_);
  ASSERT_TRUE(store.save(key, sample_result(0.0)));
  const std::string before = read_bytes(store.path_of(key));

  // The disk fills mid-write: the save reports failure, the temp file is
  // cleaned up, and the previously persisted record is untouched.
  faultpoint::arm("fsio.write", faultpoint::Mode::kEnospc);
  EXPECT_FALSE(store.save(key, sample_result(9.0)));
  faultpoint::disarm_all();

  EXPECT_EQ(read_bytes(store.path_of(key)), before)
      << "a failed write must leave the old record";
  const auto loaded = store.load(key);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(sample_result(0.0), *loaded);
  // No orphan temp files either: the failed write cleaned up after itself.
  std::size_t strays = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
    if (entry.is_regular_file() && entry.path().extension() != ".run") {
      ++strays;
    }
  }
  EXPECT_EQ(strays, 0u);
}

TEST_F(RunStoreTest, TornWriteReadsAsMissAndCountsAsCorrupt) {
  const RunKey key{5, 6};
  const RunStore store(dir_);

  // A torn write REPORTS SUCCESS (the silent corruption a non-atomic
  // filesystem produces) but lands only a prefix of the record.
  faultpoint::arm("fsio.write", faultpoint::Mode::kPartial);
  EXPECT_TRUE(store.save(key, sample_result(0.0)));
  faultpoint::disarm_all();

  const std::uint64_t corrupt_before = run_store_corrupt_reads();
  EXPECT_FALSE(store.load(key).has_value())
      << "the checksum must reject the torn record";
  EXPECT_EQ(run_store_corrupt_reads(), corrupt_before + 1)
      << "a rejected record must be surfaced, not silently recomputed";

  // A clean rewrite recovers the cell.
  ASSERT_TRUE(store.save(key, sample_result(0.0)));
  EXPECT_TRUE(store.load(key).has_value());
}

TEST_F(RunStoreTest, InjectedLoadErrorIsAMissNotCorruption) {
  const RunKey key{30, 31};
  const RunStore store(dir_);
  ASSERT_TRUE(store.save(key, sample_result(0.0)));

  const std::uint64_t corrupt_before = run_store_corrupt_reads();
  faultpoint::arm("run_store.load", faultpoint::Mode::kError);
  EXPECT_FALSE(store.load(key).has_value());
  faultpoint::disarm_all();
  EXPECT_EQ(run_store_corrupt_reads(), corrupt_before)
      << "an I/O error is not a corrupt record";
  EXPECT_TRUE(store.load(key).has_value()) << "the record itself is fine";
}

TEST_F(RunStoreTest, UnwritableDirDegradesToProcessLocalCaching) {
  RunCache cache;
  cache.set_store_dir("/proc/definitely/not/writable");
  std::atomic<int> computes{0};
  const RunKey key{1, 1};
  (void)cache.get_or_run(key, [&] {
    computes.fetch_add(1);
    return sample_result(0.0);
  });
  (void)cache.get_or_run(key, [&] {
    computes.fetch_add(1);
    return sample_result(0.0);
  });
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.hits(), 1u);
}

// ---- Sweep-level persistence (the acceptance-criterion shape) ------------

TEST_F(RunStoreTest, WarmCacheDirMakesSecondSweepSimulateNothing) {
  SweepSpec spec;
  spec.suite = trace::build_quick_suite(1, 1, 2);
  spec.suite.resize(3);
  spec.cycles = 1500;
  spec.warmup = 300;
  spec.jobs = 2;
  spec.with_fairness = true;
  spec.progress = false;
  spec.base = paper_baseline();
  spec.axes = {{"scheme",
                {{"Icount",
                  [](core::SimConfig& c) {
                    c.policy = policy::PolicyKind::kIcount;
                  }},
                 {"CDPRF", [](core::SimConfig& c) {
                    c.policy = policy::PolicyKind::kCdprf;
                  }}}}};

  RunCache cold;
  cold.set_store_dir(dir_);
  spec.cache = &cold;
  const SweepResult first = run_sweep(spec);
  EXPECT_GT(first.cache_misses, 0u);
  EXPECT_EQ(first.cache_disk_hits, 0u);

  // A fresh cache over the same dir — the "second invocation of the bench"
  // — performs zero simulations: every cell loads from disk.
  RunCache warm;
  warm.set_store_dir(dir_);
  spec.cache = &warm;
  const SweepResult second = run_sweep(spec);
  EXPECT_EQ(second.cache_misses, 0u);
  EXPECT_GT(second.cache_disk_hits, 0u);

  // And the tables are bit-identical to the computed ones.
  for (std::size_t p = 0; p < first.cells.size(); ++p) {
    for (std::size_t w = 0; w < first.cells[p].size(); ++w) {
      EXPECT_EQ(first.cells[p][w].throughput, second.cells[p][w].throughput);
      EXPECT_EQ(first.cells[p][w].fairness, second.cells[p][w].fairness);
    }
  }
}

// ---- Merging stores (store_merge) ---------------------------------------

TEST_F(RunStoreTest, MergeCopiesAbsentRecords) {
  const RunStore from(dir_ + "/from");
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(from.save(RunKey{i << 56, i}, sample_result(0.1 * i)));
  }
  const MergeResult r = merge_run_store(dir_ + "/into", from.dir());
  EXPECT_EQ(r.scanned, 3u);
  EXPECT_EQ(r.copied, 3u);
  EXPECT_EQ(r.identical + r.conflicts + r.invalid, 0u);
  const RunStore into(dir_ + "/into");
  for (std::uint64_t i = 0; i < 3; ++i) {
    const RunKey key{i << 56, i};
    EXPECT_EQ(read_bytes(into.path_of(key)), read_bytes(from.path_of(key)));
  }
}

TEST_F(RunStoreTest, MergeSkipsByteIdenticalRecords) {
  const RunStore from(dir_ + "/from");
  const RunStore into(dir_ + "/into");
  ASSERT_TRUE(from.save(RunKey{1, 1}, sample_result(0.0)));
  ASSERT_TRUE(from.save(RunKey{2, 2}, sample_result(0.5)));
  ASSERT_TRUE(into.save(RunKey{1, 1}, sample_result(0.0)));
  const MergeResult r = merge_run_store(into.dir(), from.dir());
  EXPECT_EQ(r.scanned, 2u);
  EXPECT_EQ(r.copied, 1u);
  EXPECT_EQ(r.identical, 1u);
  EXPECT_EQ(r.conflicts, 0u);
}

TEST_F(RunStoreTest, MergeKeepsTheDestinationRecordOnConflict) {
  const RunStore from(dir_ + "/from");
  const RunStore into(dir_ + "/into");
  const RunKey key{3, 3};
  ASSERT_TRUE(from.save(key, sample_result(0.0)));
  ASSERT_TRUE(into.save(key, sample_result(7.0)));
  const std::string kept = read_bytes(into.path_of(key));
  const MergeResult r = merge_run_store(into.dir(), from.dir());
  EXPECT_EQ(r.conflicts, 1u);
  EXPECT_EQ(r.copied, 0u);
  EXPECT_EQ(read_bytes(into.path_of(key)), kept);
}

TEST_F(RunStoreTest, MergeDoesNotCopyATornSourceRecord) {
  const RunStore from(dir_ + "/from");
  const RunKey key{4, 4};
  ASSERT_TRUE(from.save(key, sample_result(0.0)));
  fs::resize_file(from.path_of(key), fs::file_size(from.path_of(key)) / 2);
  const MergeResult r = merge_run_store(dir_ + "/into", from.dir());
  EXPECT_EQ(r.scanned, 1u);
  EXPECT_EQ(r.invalid, 1u);
  EXPECT_EQ(r.copied, 0u);
  EXPECT_FALSE(fs::exists(RunStore(dir_ + "/into").path_of(key)));
}

TEST_F(RunStoreTest, MergeCountsRecordsItCouldNotWriteAsFailed) {
  const RunStore from(dir_ + "/from");
  ASSERT_TRUE(from.save(RunKey{7, 7}, sample_result(0.0)));
  ASSERT_TRUE(from.save(RunKey{8, 8}, sample_result(0.5)));
  // A regular file where the destination's parent directory should be:
  // no record can be written below it.
  std::ofstream(dir_ + "/blocker") << "not a directory";
  const MergeResult r = merge_run_store(dir_ + "/blocker/into", from.dir());
  EXPECT_EQ(r.scanned, 2u);
  EXPECT_EQ(r.failed, r.scanned);
  EXPECT_EQ(r.copied, 0u);
}

TEST_F(RunStoreTest, MergeDryRunWritesNothing) {
  const RunStore from(dir_ + "/from");
  ASSERT_TRUE(from.save(RunKey{5, 5}, sample_result(0.0)));
  ASSERT_TRUE(from.save(RunKey{6, 6}, sample_result(0.0)));
  const MergeResult r =
      merge_run_store(dir_ + "/into", from.dir(), {.dry_run = true});
  EXPECT_EQ(r.copied, 2u) << "a dry run counts would-be copies";
  EXPECT_FALSE(fs::exists(dir_ + "/into"));
}

// ---- Garbage collection (cache_gc) ---------------------------------------

TEST_F(RunStoreTest, GcEnforcesSizeCapOldestFirst) {
  RunStore store(dir_);
  // Ten records with strictly increasing mtimes (explicitly set: the test
  // must not depend on filesystem timestamp granularity).
  std::vector<std::string> paths;
  for (int i = 0; i < 10; ++i) {
    const RunKey key{static_cast<std::uint64_t>(i) << 56, 7ull + i};
    ASSERT_TRUE(store.save(key, sample_result(0.01 * i)));
    paths.push_back(store.path_of(key));
    fs::last_write_time(paths.back(),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(100 - i));
  }
  const auto record_bytes = fs::file_size(paths[0]);

  // Cap at ~4 records: the six oldest must go, the four newest stay.
  GcOptions options;
  options.max_bytes = record_bytes * 4;
  const GcResult result = gc_run_store(dir_, options);
  EXPECT_EQ(result.scanned_files, 10u);
  EXPECT_EQ(result.deleted_files, 6u);
  EXPECT_EQ(result.deleted_bytes, record_bytes * 6);
  for (int i = 0; i < 6; ++i) EXPECT_FALSE(fs::exists(paths[i])) << i;
  for (int i = 6; i < 10; ++i) EXPECT_TRUE(fs::exists(paths[i])) << i;
}

TEST_F(RunStoreTest, GcFileCapDryRunAndForeignFilesUntouched) {
  RunStore store(dir_);
  for (int i = 0; i < 5; ++i) {
    const RunKey key{static_cast<std::uint64_t>(i) << 56, 11ull + i};
    ASSERT_TRUE(store.save(key, sample_result(0.0)));
    fs::last_write_time(store.path_of(key),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(50 - i));
  }
  // A non-record file in the dir must be ignored by scan and never deleted.
  const fs::path foreign = fs::path(dir_) / "README.txt";
  std::ofstream(foreign) << "not a record";

  GcOptions dry{.max_files = 2, .dry_run = true};
  const GcResult planned = gc_run_store(dir_, dry);
  EXPECT_EQ(planned.scanned_files, 5u);
  EXPECT_EQ(planned.deleted_files, 3u);
  std::size_t live = 0;
  for (auto it = fs::recursive_directory_iterator(dir_);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_regular_file() && it->path().extension() == ".run") ++live;
  }
  EXPECT_EQ(live, 5u) << "dry run must not delete";

  GcOptions real{.max_files = 2};
  const GcResult swept = gc_run_store(dir_, real);
  EXPECT_EQ(swept.deleted_files, 3u);
  EXPECT_TRUE(fs::exists(foreign));

  // Kept records still load (GC never corrupts survivors).
  const RunKey newest{4ull << 56, 15ull};
  EXPECT_TRUE(store.load(newest).has_value());
}

TEST_F(RunStoreTest, GcDeletesOnlyOldOrphanedTempFiles) {
  const RunStore store(dir_);
  const RunKey key{9ull << 56, 9};
  ASSERT_TRUE(store.save(key, sample_result(0.0)));
  // What a writer killed between fsync and rename leaves next to the
  // record, and what a live writer holds for a few milliseconds.
  const std::string orphan = store.path_of(key) + ".tmp.4242.0";
  const std::string live = store.path_of(key) + ".tmp.4242.1";
  std::ofstream(orphan) << "complete but never renamed";
  std::ofstream(live) << "still being written";
  fs::last_write_time(orphan, fs::file_time_type::clock::now() -
                                  2 * kOrphanTempAge);

  const GcResult planned = gc_run_store(dir_, {.dry_run = true});
  EXPECT_EQ(planned.deleted_temp_files, 1u);
  EXPECT_TRUE(fs::exists(orphan)) << "dry run must not delete";

  const GcResult swept = gc_run_store(dir_, {});
  EXPECT_EQ(swept.deleted_temp_files, 1u);
  EXPECT_EQ(swept.scanned_files, 1u) << "temp files are not records";
  EXPECT_EQ(swept.deleted_files, 0u);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(live));
  EXPECT_TRUE(store.load(key).has_value());
}

TEST_F(RunStoreTest, GcOnMissingDirIsEmpty) {
  const GcResult result =
      gc_run_store(dir_ + "/does-not-exist", GcOptions{.max_bytes = 1});
  EXPECT_EQ(result.scanned_files, 0u);
  EXPECT_EQ(result.deleted_files, 0u);
}

}  // namespace
}  // namespace clusmt::harness
