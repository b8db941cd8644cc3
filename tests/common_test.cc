#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/fsio.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "trace/workload.h"

namespace clusmt {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Rng, BoundedCoversRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Xoshiro256 rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, GeometricMeanMatchesTheory) {
  Xoshiro256 rng(13);
  const double p = 0.25;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.geometric(p, 1000));
  }
  // E[failures before success] = (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, GeometricRespectsCap) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LE(rng.geometric(0.01, 5), 5u);
  }
}

/// Xoshiro256::geometric's formula with its guards, for one 53-bit draw
/// (u = m53 * 2^-53): the definition GeometricDist must reproduce exactly.
std::uint64_t geometric_formula(double p, std::uint64_t m53,
                                std::uint64_t cap) {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return cap;
  const double u = static_cast<double>(m53) * 0x1.0p-53;
  const double draw = std::log1p(-u) / std::log1p(-p);
  if (!(draw >= 0.0) || draw >= static_cast<double>(cap)) return cap;
  return static_cast<std::uint64_t>(draw);
}

constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
constexpr std::uint64_t kMaxCap = GeometricDist::kTableMax;

/// Every p the trace generator samples with (dep_geo_p and old_src_p of
/// TracePool seeds 1 and 1009, the indirect-target skew 0.9) plus edges.
std::vector<double> sampler_probabilities() {
  std::set<double> ps = {0.9, 1e-3, 0.999, 0.0, -0.5, 1.0, 1.5};
  for (std::uint64_t seed : {1u, 1009u}) {
    const trace::TracePool pool(seed);
    for (const trace::TraceSpec& spec : pool.all()) {
      ps.insert(spec.profile.dep_geo_p);
      ps.insert(spec.profile.old_src_p);
    }
  }
  return {ps.begin(), ps.end()};
}

/// Checks `dist.draw(m53, cap)` against the formula for every cap 0..64.
/// The formula is evaluated once, at cap 64: with a finite, non-negative
/// quotient (or a guard) a smaller cap c yields exactly min(result, c).
void expect_draw_matches(const GeometricDist& dist, double p,
                         std::uint64_t m53) {
  const std::uint64_t at_max = geometric_formula(p, m53, kMaxCap);
  for (std::uint64_t cap = 0; cap <= kMaxCap; ++cap) {
    const std::uint64_t got = dist.draw(m53, cap);
    if (got != std::min(at_max, cap)) {  // cheap check; ASSERT on failure
      ASSERT_EQ(got, std::min(at_max, cap))
          << "p=" << p << " m53=" << m53 << " cap=" << cap;
    }
  }
  // Caps past the table fall back to the formula itself.
  ASSERT_EQ(dist.draw(m53, 1000), geometric_formula(p, m53, 1000))
      << "p=" << p << " m53=" << m53;
}

TEST(GeometricDist, MatchesFormulaAroundEveryThreshold) {
  for (double p : sampler_probabilities()) {
    const GeometricDist dist(p);
    for (std::uint64_t k = 1; k <= kMaxCap; ++k) {
      // First draw the formula maps to k or more, found independently of
      // the table (kDraws when no draw reaches k).
      std::uint64_t lo = 0;
      std::uint64_t hi = kDraws;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (geometric_formula(p, mid, k) >= k) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      const std::uint64_t from = lo > 256 ? lo - 256 : 0;
      const std::uint64_t to = std::min(lo + 256, kDraws - 1);
      for (std::uint64_t m = from; m <= to; ++m) {
        expect_draw_matches(dist, p, m);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(GeometricDist, MatchesFormulaOnRandomDraws) {
  Xoshiro256 rng(2024);
  for (double p : sampler_probabilities()) {
    const GeometricDist dist(p);
    for (int i = 0; i < 1'000'000; ++i) {
      const std::uint64_t m = rng() >> 11;
      const std::uint64_t cap = rng.bounded(kMaxCap + 1);
      const std::uint64_t want = geometric_formula(p, m, cap);
      if (dist.draw(m, cap) != want) {
        ASSERT_EQ(dist.draw(m, cap), want)
            << "p=" << p << " m53=" << m << " cap=" << cap;
      }
    }
  }
}

TEST(GeometricDist, SampleMatchesXoshiroGeometric) {
  // Same results from equal RNG states, and the same RNG words consumed:
  // the guards (p <= 0, p >= 1) decide without drawing in both.
  for (double p : sampler_probabilities()) {
    const GeometricDist dist(p);
    Xoshiro256 a(99);
    Xoshiro256 b(99);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t cap = static_cast<std::uint64_t>(i % 70);
      ASSERT_EQ(dist.sample(a, cap), b.geometric(p, cap))
          << "p=" << p << " sample #" << i;
    }
    EXPECT_EQ(a(), b()) << "p=" << p;
  }
}

TEST(Rng, HashCombineChanges) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(hash_combine(1, 2), hash_combine(1, 3));
  EXPECT_EQ(hash_combine(10, 20), hash_combine(10, 20));
}

TEST(RunningStats, CountAndMean) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(SpanStats, Mean) {
  const std::vector<double> xs = {1.0, 2.0, 4.0};
  EXPECT_NEAR(mean_of(xs), 7.0 / 3.0, 1e-12);
  EXPECT_EQ(mean_of({}), 0.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render_text();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  // header + rule + 2 rows
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

// The golden gate compares the JSON rendering byte for byte, and every bench
// prints the text rendering, so all three are pinned whole here: a spacing,
// quoting or number-typing change fails tier-1, not only CI's golden job.
TEST(Table, PinsEveryRenderingByteForByte) {
  Table t({"scheme", "speedup", "note"});
  t.new_row().add_cell(std::string("CDPRF")).add_cell(1.176).add_cell(
      std::string("12%"));
  t.add_row({"Icount, base", "1", "said \"hi\""});
  t.add_row({"short"});

  EXPECT_EQ(t.render_text(),
            "scheme        speedup       note\n"
            "--------------------------------\n"
            "CDPRF           1.176        12%\n"
            "Icount, base        1  said \"hi\"\n"
            "short                           \n");
  EXPECT_EQ(t.to_csv(),
            "scheme,speedup,note\n"
            "CDPRF,1.176,12%\n"
            "\"Icount, base\",1,\"said \"\"hi\"\"\"\n"
            "short\n");
  EXPECT_EQ(t.to_json(),
            "[\n"
            "  {\"scheme\": \"CDPRF\", \"speedup\": 1.176, "
            "\"note\": \"12%\"},\n"
            "  {\"scheme\": \"Icount, base\", \"speedup\": 1, "
            "\"note\": \"said \\\"hi\\\"\"},\n"
            "  {\"scheme\": \"short\", \"speedup\": null, \"note\": null}\n"
            "]\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  Table csv({"a", "b"});
  csv.add_row({"x,y", "he said \"hi\""});
  const std::string out = csv.to_csv();
  EXPECT_NE(out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(out.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Csv, JsonKeepsColumnOrderAndNumberTyping) {
  Table csv({"name", "value"});
  csv.add_row({"alpha", "1.500"});
  csv.add_row({"be\"ta", "12%"});
  const std::string out = csv.to_json();
  // Keys in header order; numeric cells bare, non-numeric cells quoted.
  EXPECT_NE(out.find("{\"name\": \"alpha\", \"value\": 1.500}"),
            std::string::npos);
  EXPECT_NE(out.find("{\"name\": \"be\\\"ta\", \"value\": \"12%\"}"),
            std::string::npos);
}

TEST(Csv, JsonQuotesTokensStrtodWouldAccept) {
  // strtod consumes these fully, but they are not JSON numbers — they must
  // be emitted as strings or the document is unparseable.
  Table csv({"v"});
  for (const char* cell : {"nan", "inf", "-inf", "0x1A", " 1", "1.", "017"}) {
    csv.add_row({cell});
  }
  csv.add_row({"-12.5e3"});  // and this one IS a JSON number
  const std::string out = csv.to_json();
  EXPECT_NE(out.find("{\"v\": \"nan\"}"), std::string::npos);
  EXPECT_NE(out.find("{\"v\": \"inf\"}"), std::string::npos);
  EXPECT_NE(out.find("{\"v\": \"-inf\"}"), std::string::npos);
  EXPECT_NE(out.find("{\"v\": \"0x1A\"}"), std::string::npos);
  EXPECT_NE(out.find("{\"v\": \" 1\"}"), std::string::npos);
  EXPECT_NE(out.find("{\"v\": \"1.\"}"), std::string::npos);
  EXPECT_NE(out.find("{\"v\": \"017\"}"), std::string::npos);
  EXPECT_NE(out.find("{\"v\": -12.5e3}"), std::string::npos);
}

TEST(Csv, JsonPadsShortRowsWithNull) {
  // A short row must still carry every header key (the stable-column
  // contract the golden gate diffs against), with null flagging the gap.
  Table csv({"a", "b", "c"});
  csv.add_row({"full", "1.0", "2.0"});
  csv.add_row({"short"});
  const std::string out = csv.to_json();
  EXPECT_NE(out.find("{\"a\": \"full\", \"b\": 1.0, \"c\": 2.0}"),
            std::string::npos);
  EXPECT_NE(out.find("{\"a\": \"short\", \"b\": null, \"c\": null}"),
            std::string::npos);
}

TEST(Csv, WriteFilesAreAtomicAndComplete) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "clusmt_csv_test").string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/out.csv";

  Table csv({"k", "v"});
  csv.add_row({"x", "1"});
  ASSERT_TRUE(csv.write_csv(path));
  ASSERT_TRUE(csv.write_json(path + ".json"));

  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, csv.to_csv());

  // No temp droppings, and a failed write reports rather than truncates.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos);
  }
  EXPECT_EQ(files, 2u);
  EXPECT_FALSE(csv.write_csv(dir + "/missing/sub/dir.csv"));
  std::filesystem::remove_all(dir);
}

TEST(Fsio, AtomicWriteReplacesWholeFile) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "clusmt_fsio_test").string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/data.txt";
  ASSERT_TRUE(write_file_atomic(path, "first version"));
  ASSERT_TRUE(write_file_atomic(path, "second"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");
  EXPECT_FALSE(write_file_atomic(dir + "/no/such/dir.txt", "x"));
  std::filesystem::remove_all(dir);
}

TEST(CliDeath, MalformedIntegerExitsWithError) {
  // "--cycles=10k" must not silently run 10 cycles.
  const char* argv[] = {"prog", "--cycles=10k"};
  const CliArgs args(2, argv);
  EXPECT_EXIT((void)args.get_int("cycles", 0),
              ::testing::ExitedWithCode(2), "--cycles expects an integer");
}

TEST(CliDeath, BareFlagAskedAsIntegerExitsWithError) {
  // "--jobs" with no value parses as boolean "true"; reading it as a
  // number must not silently become 0.
  const char* argv[] = {"prog", "--jobs"};
  const CliArgs args(2, argv);
  EXPECT_EXIT((void)args.get_int("jobs", 4), ::testing::ExitedWithCode(2),
              "--jobs expects an integer");
}

TEST(CliDeath, NegativeCountExitsWithError) {
  // "--jobs=-1" used to become SIZE_MAX pool workers at the caller's cast
  // (an uncaught std::length_error), and "--cycles=-1" 2^64-1 cycles.
  const char* argv[] = {"prog", "--jobs=-1", "--cycles=-1"};
  const CliArgs args(3, argv);
  EXPECT_EXIT((void)args.get_int("jobs", 0, 0), ::testing::ExitedWithCode(2),
              "--jobs expects an integer >= 0, got '-1'");
  EXPECT_EXIT((void)args.get_int("cycles", 1000, 0),
              ::testing::ExitedWithCode(2), "--cycles expects an integer >= 0");
}

TEST(CliDeath, ValueAboveMaxExitsWithError) {
  // cache_gc bounds --max-mb so the byte count cannot wrap: 2^44 + 1 MB
  // used to wrap to a 1 MB cap.
  const char* argv[] = {"prog", "--max-mb=17592186044417"};
  const CliArgs args(2, argv);
  EXPECT_EXIT((void)args.get_int("max-mb", 0, 0, 17592186044415),
              ::testing::ExitedWithCode(2),
              "--max-mb expects an integer in \\[0, 17592186044415\\]");
}

TEST(CliDeath, IntListJunkTokenExitsWithError) {
  // "--iq=48,16x" must not silently truncate the second cluster to 16.
  const char* argv[] = {"prog", "--iq=48,16x"};
  const CliArgs args(2, argv);
  EXPECT_EXIT((void)args.get_int_list("iq"), ::testing::ExitedWithCode(2),
              "--iq expects a comma-separated list");
}

TEST(CliDeath, IntListEmptyElementExitsWithError) {
  // A dangling comma ("48,") or a double comma ("48,,16") is a malformed
  // list, not a shorter one.
  const char* trailing[] = {"prog", "--iq=48,"};
  EXPECT_EXIT((void)CliArgs(2, trailing).get_int_list("iq"),
              ::testing::ExitedWithCode(2),
              "--iq expects a comma-separated list");
  const char* doubled[] = {"prog", "--width=4,,2"};
  EXPECT_EXIT((void)CliArgs(2, doubled).get_int_list("width"),
              ::testing::ExitedWithCode(2),
              "--width expects a comma-separated list");
}

TEST(CliDeath, IntListNegativeValueExitsWithError) {
  // Shape fields are sizes; -16 IQ entries is a usage error, not a value.
  const char* argv[] = {"prog", "--iq=48,-16"};
  const CliArgs args(2, argv);
  EXPECT_EXIT((void)args.get_int_list("iq"), ::testing::ExitedWithCode(2),
              "non-negative");
}

TEST(CliDeath, IntListValueBeyondIntExitsWithError) {
  // 4294967328 = 2^32 + 32 used to wrap to a 32-entry IQ in the int cast.
  const char* argv[] = {"prog", "--iq=4294967328,16"};
  const CliArgs args(2, argv);
  EXPECT_EXIT((void)args.get_int_list("iq"), ::testing::ExitedWithCode(2),
              "--iq expects a comma-separated list of non-negative integers "
              "up to 2147483647");
}

TEST(CliDeath, BareFlagAskedAsIntListExitsWithError) {
  const char* argv[] = {"prog", "--iq"};
  const CliArgs args(2, argv);
  EXPECT_EXIT((void)args.get_int_list("iq"), ::testing::ExitedWithCode(2),
              "--iq expects a comma-separated list");
}

TEST(Cli, WellFormedIntListsParse) {
  const char* argv[] = {"prog", "--iq=48,16", "--width=3", "--link=1,4,4,1"};
  const CliArgs args(4, argv);
  EXPECT_EQ(args.get_int_list("iq"), (std::vector<int>{48, 16}));
  EXPECT_EQ(args.get_int_list("width"), (std::vector<int>{3}));
  EXPECT_EQ(args.get_int_list("link"), (std::vector<int>{1, 4, 4, 1}));
  EXPECT_TRUE(args.get_int_list("absent").empty());
}

TEST(Cli, WellFormedNumbersStillParse) {
  const char* argv[] = {"prog", "--n=-42", "--big=123456789", "--zero=0"};
  const CliArgs args(4, argv);
  EXPECT_EQ(args.get_int("n", 0), -42);
  EXPECT_EQ(args.get_int("big", 0), 123456789);
  EXPECT_EQ(args.get_int("absent", 7), 7);
  // Range bounds are inclusive, and a fallback is not range-checked.
  EXPECT_EQ(args.get_int("zero", 5, 0), 0);
  EXPECT_EQ(args.get_int("n", 0, -42, -42), -42);
  EXPECT_EQ(args.get_int("absent", -1, 0), -1);
}

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] { counter.fetch_add(1); });
    }
  }  // the destructor drains the queue before joining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitTaskReturnsValue) {
  ThreadPool pool(2);
  auto doubled = pool.submit_task([] { return 21 * 2; });
  auto text = pool.submit_task([] { return std::string("ok"); });
  EXPECT_EQ(doubled.get(), 42);
  EXPECT_EQ(text.get(), "ok");
}

TEST(ThreadPool, SubmitTaskPropagatesException) {
  ThreadPool pool(2);
  auto failing = pool.submit_task(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)failing.get(), std::runtime_error);
}

TEST(ParallelFor, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroAndSingle) {
  parallel_for(0, [](std::size_t) { FAIL(); });
  int calls = 0;
  parallel_for(1, [&](std::size_t) { ++calls; }, 1);
  EXPECT_EQ(calls, 1);
}

TEST(Cli, ParsesAllForms) {
  // Note: a bare "--flag" followed by a non-flag token consumes it as a
  // value, so positionals must precede boolean flags.
  const char* argv[] = {"prog",   "--alpha=3", "--beta", "7",
                        "pos1",   "--flag",    "--gamma=x,y"};
  CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 7);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_string("gamma", ""), "x,y");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.get_int("missing", -5), -5);
}

TEST(Types, ArchRegClassBoundaries) {
  EXPECT_EQ(arch_reg_class(0), RegClass::kInt);
  EXPECT_EQ(arch_reg_class(kNumIntArchRegs - 1), RegClass::kInt);
  EXPECT_EQ(arch_reg_class(kNumIntArchRegs), RegClass::kFp);
  EXPECT_EQ(arch_reg_class(kNumArchRegs - 1), RegClass::kFp);
  EXPECT_TRUE(is_valid_arch_reg(0));
  EXPECT_FALSE(is_valid_arch_reg(-1));
  EXPECT_FALSE(is_valid_arch_reg(kNumArchRegs));
}

}  // namespace
}  // namespace clusmt
