// Chaos hardening of the run store (common/faultpoint.h). Sweeps run under
// fixed-seed store fault schedules — torn and ENOSPC writes, read and save
// errors, a crash between fsync and rename — and must still emit tables
// byte-identical to a fault-free in-process run:
//   - the multi-host recipe: suite slices swept into separate stores under
//     faults, merged with merge_run_store, then one full sweep over the
//     union, which heals the store so a second full sweep simulates nothing;
//   - crash recovery: a sweep killed mid-flight is resumed by rerunning it,
//     which simulates only the cells whose records never landed, and
//     gc_run_store deletes the temp file the crash orphaned;
//   - a full disk: the store degrades to a memory-only tier.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/faultpoint.h"
#include "harness/presets.h"
#include "harness/run_cache.h"
#include "harness/run_store.h"
#include "harness/sweep.h"
#include "trace/workload.h"

namespace clusmt::harness {
namespace {

namespace fs = std::filesystem;

/// One armed fault point: faultpoint::arm's arguments.
struct Fault {
  const char* point;
  faultpoint::Mode mode;
  double probability;
  std::uint64_t seed;
};

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    faultpoint::disarm_all();
    std::string tmpl =
        (fs::temp_directory_path() / "clusmt_chaos_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    faultpoint::disarm_all();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string subdir(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
};

/// One .ilp., one .mem. and one .mix. workload. The mix pairs the first
/// ILP and MEM traces, so its fairness baselines are also baselines of the
/// other two slices.
std::vector<trace::WorkloadSpec> chaos_suite() {
  std::vector<trace::WorkloadSpec> suite = trace::build_quick_suite(1, 1, 0);
  suite.resize(3);
  return suite;
}

/// The workloads of `suite` whose name contains `sub`, as --filter keeps.
std::vector<trace::WorkloadSpec> slice(std::vector<trace::WorkloadSpec> suite,
                                       const std::string& sub) {
  std::erase_if(suite, [&](const trace::WorkloadSpec& w) {
    return w.name.find(sub) == std::string::npos;
  });
  return suite;
}

/// 2 schemes x `suite` with fairness baselines, kept quick. One host
/// thread runs the cells in queue order, so a fixed-seed schedule hits the
/// same cells in every run.
SweepSpec chaos_spec(std::vector<trace::WorkloadSpec> suite) {
  SweepSpec spec;
  spec.suite = std::move(suite);
  spec.cycles = 1500;
  spec.warmup = 300;
  spec.jobs = 1;
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
  return spec;
}

/// Sweeps `spec` through a fresh cache over `store` ("" = memory only), as
/// a separate bench invocation would.
SweepResult sweep_into(SweepSpec spec, const std::string& store) {
  RunCache cache;
  cache.set_store_dir(store);
  spec.cache = &cache;
  return run_sweep(spec);
}

/// The emitted artifact bytes, as a bench would write them.
std::string render_csv(const SweepResult& result) {
  std::vector<std::pair<std::string, std::vector<double>>> series;
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    series.emplace_back(result.points[p].label + " thr",
                        result.throughput(p));
    series.emplace_back(result.points[p].label + " fair",
                        result.fairness(p));
  }
  return category_table(result.suite, series, 6).to_csv();
}

std::string render_json(const SweepResult& result) {
  std::vector<std::pair<std::string, std::vector<double>>> series;
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    series.emplace_back(result.points[p].label, result.throughput(p));
  }
  return category_table(result.suite, series, 6).to_json();
}

/// Every .run record under `dir`, keyed by store-relative path. Writer temp
/// files are not records: atomic writes keep them invisible to readers.
std::map<std::string, std::string> store_records(const std::string& dir) {
  std::map<std::string, std::string> out;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code fec;
    if (!it->is_regular_file(fec) || it->path().extension() != ".run") {
      continue;
    }
    std::ifstream in(it->path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::error_code rel_ec;
    out.emplace(fs::relative(it->path(), dir, rel_ec).string(),
                std::move(bytes));
  }
  return out;
}

/// Writer temp files (`<key>.run.tmp.<pid>.<n>`) under `dir`.
std::vector<fs::path> temp_files(const std::string& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().filename().string().find(".run.tmp.") !=
        std::string::npos) {
      out.push_back(it->path());
    }
  }
  return out;
}

TEST_F(ChaosTest, SlicedSweepsUnderStoreFaultsMergeToFaultFreeTables) {
  // Fault-free reference: the table bytes and the exact store records.
  const SweepResult reference =
      sweep_into(chaos_spec(chaos_suite()), subdir("store-ref"));
  const std::string ref_csv = render_csv(reference);
  const std::string ref_json = render_json(reference);
  const auto ref_records = store_records(subdir("store-ref"));
  ASSERT_FALSE(ref_records.empty());

  // One host per slice, each with its own store and its own schedule. A
  // point takes one mode at a time, so torn and ENOSPC writes alternate
  // between slices. Baselines are saved in run-key order, so which records
  // a seed tears moves whenever the run key changes; the seeds are picked
  // so that a shared baseline survives in two slices.
  using faultpoint::Mode;
  const std::vector<std::pair<std::string, std::vector<Fault>>> slices = {
      {".ilp.",
       {{"fsio.write", Mode::kPartial, 0.3, 8},
        {"run_store.load", Mode::kError, 0.3, 8}}},
      {".mem.",
       {{"fsio.write", Mode::kEnospc, 0.3, 2},
        {"run_store.save", Mode::kError, 0.2, 2}}},
      {".mix.",
       {{"fsio.write", Mode::kPartial, 0.3, 4},
        {"run_store.save", Mode::kError, 0.2, 4},
        {"run_store.load", Mode::kError, 0.3, 4}}},
  };
  std::uint64_t fires = 0;
  std::vector<std::string> slice_stores;
  for (const auto& [filter, schedule] : slices) {
    SCOPED_TRACE("slice " + filter);
    const std::vector<trace::WorkloadSpec> part = slice(chaos_suite(), filter);
    ASSERT_EQ(part.size(), 1u);
    slice_stores.push_back(subdir("store" + filter));
    for (const Fault& f : schedule) {
      faultpoint::arm(f.point, f.mode, f.probability, f.seed);
    }
    (void)sweep_into(chaos_spec(part), slice_stores.back());
    fires += faultpoint::total_fires();
    faultpoint::disarm_all();
  }
  EXPECT_GT(fires, 0u) << "the schedules must actually inject faults";

  MergeResult merged;
  for (const std::string& from : slice_stores) {
    const MergeResult r = merge_run_store(subdir("merged"), from);
    merged.copied += r.copied;
    merged.identical += r.identical;
    merged.conflicts += r.conflicts;
    merged.invalid += r.invalid;
  }
  EXPECT_GT(merged.copied, 0u);
  EXPECT_GT(merged.identical, 0u) << "mix baselines recur in other slices";
  EXPECT_GT(merged.invalid, 0u) << "torn records are dropped, not merged";
  EXPECT_EQ(merged.conflicts, 0u) << "valid records of a key agree";

  // The full sweep over the union simulates what the faults cost (torn,
  // unsaved and unread cells), even with reads still failing now and then,
  // and its tables match the fault-free run.
  faultpoint::arm("run_store.load", faultpoint::Mode::kError, 0.2, 14);
  const SweepResult full =
      sweep_into(chaos_spec(chaos_suite()), subdir("merged"));
  faultpoint::disarm_all();
  EXPECT_GT(full.cache_disk_hits, 0u);
  EXPECT_EQ(render_csv(full), ref_csv);
  EXPECT_EQ(render_json(full), ref_json);

  // That sweep healed the store: one record per cell, each byte-identical
  // to the fault-free record, so the next sweep simulates nothing.
  EXPECT_EQ(store_records(subdir("merged")), ref_records);
  const SweepResult warm =
      sweep_into(chaos_spec(chaos_suite()), subdir("merged"));
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(render_csv(warm), ref_csv);
  EXPECT_EQ(render_json(warm), ref_json);
}

/// Store of the crash test. A threadsafe death test re-executes this binary
/// for its child, which replays the test body up to EXPECT_EXIT, so the
/// path cannot come from a per-process mkdtemp. Parent and child share a
/// process group, so both derive the path from its id.
std::string crash_store_dir() {
  return (fs::temp_directory_path() /
          ("clusmt_chaos_crash_" + std::to_string(::getpgrp())))
      .string();
}

TEST(ChaosCrashTest, CrashedSweepIsRecoveredByRerunningIt) {
  // The sweep starts a thread pool. The threadsafe style re-executes the
  // binary for the child instead of forking a process that may hold
  // threads.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  faultpoint::disarm_all();
  const std::string store = crash_store_dir();
  std::error_code ec;
  fs::remove_all(store, ec);

  // Runs in the child only; the seed puts the crash mid-sweep.
  EXPECT_EXIT(
      {
        faultpoint::arm("fsio.rename", faultpoint::Mode::kCrash, 0.15, 4);
        (void)sweep_into(chaos_spec(chaos_suite()), store);
      },
      ::testing::ExitedWithCode(faultpoint::kCrashExitCode), "");

  const SweepResult reference = sweep_into(chaos_spec(chaos_suite()), "");
  const std::uint64_t cells = reference.cache_misses;
  const std::size_t saved = store_records(store).size();
  const std::vector<fs::path> orphans = temp_files(store);
  EXPECT_GT(saved, 0u) << "the crash came before any record landed";
  EXPECT_LT(saved, cells) << "the sweep finished before the crash";
  EXPECT_GE(orphans.size(), 1u) << "the crashed write leaves its temp file";

  // Recovery is rerunning the same sweep: only the missing cells are
  // simulated, and the tables match the uninterrupted run.
  const SweepResult rerun = sweep_into(chaos_spec(chaos_suite()), store);
  EXPECT_EQ(rerun.cache_disk_hits, saved);
  EXPECT_EQ(rerun.cache_misses, cells - saved);
  EXPECT_EQ(render_csv(rerun), render_csv(reference));
  EXPECT_EQ(render_json(rerun), render_json(reference));

  // A fresh temp file may belong to a live writer, so GC keeps it; once it
  // is older than kOrphanTempAge it is an orphan and goes.
  EXPECT_EQ(gc_run_store(store, {}).deleted_temp_files, 0u);
  for (const fs::path& orphan : orphans) {
    fs::last_write_time(orphan, fs::file_time_type::clock::now() -
                                    2 * kOrphanTempAge);
  }
  const GcResult gc = gc_run_store(store, {});
  EXPECT_EQ(gc.deleted_temp_files, orphans.size());
  EXPECT_EQ(gc.deleted_files, 0u);
  EXPECT_EQ(gc.scanned_files, cells);
  EXPECT_TRUE(temp_files(store).empty());
  fs::remove_all(store, ec);
}

TEST_F(ChaosTest, FullDiskStoreDegradesToMemoryOnlyWithWarning) {
  // Every save fails (the disk is "full" from the first write): the sweep
  // must complete with correct numbers, warn once, and demote the store to
  // memory-only instead of aborting or warning per cell.
  const std::string ref_csv =
      render_csv(sweep_into(chaos_spec(chaos_suite()), ""));

  faultpoint::arm("run_store.save", faultpoint::Mode::kError);
  RunCache cache;
  cache.set_store_dir(subdir("store"));
  SweepSpec spec = chaos_spec(chaos_suite());
  spec.cache = &cache;
  ::testing::internal::CaptureStderr();
  const SweepResult result = run_sweep(spec);
  const std::string log = ::testing::internal::GetCapturedStderr();
  faultpoint::disarm_all();

  EXPECT_EQ(render_csv(result), ref_csv) << "degradation must not change "
                                            "results";
  EXPECT_TRUE(cache.store_write_degraded());
  EXPECT_GE(cache.save_failures(),
            static_cast<std::uint64_t>(RunCache::kDegradeAfterSaveFailures));
  EXPECT_NE(log.find("degraded to memory-only"), std::string::npos) << log;
  EXPECT_TRUE(store_records(subdir("store")).empty())
      << "no record can land while every write fails";

  // Re-attaching a (healthy) store clears the degradation.
  cache.set_store_dir(subdir("store2"));
  EXPECT_FALSE(cache.store_write_degraded());
}

}  // namespace
}  // namespace clusmt::harness
