#include "harness/run_store.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/faultpoint.h"
#include "common/fsio.h"
#include "common/hash.h"
#include "common/wire.h"

namespace clusmt::harness {

namespace {

constexpr std::uint32_t kMagic = 0x4e524c43;  // "CLRN" little-endian

std::uint64_t checksum(std::string_view bytes) {
  Fnv1a h(~0ull);  // distinct seed from the RunKey passes
  h.add_bytes(bytes.data(), bytes.size());
  return h.digest();
}

std::atomic<std::uint64_t> g_corrupt_reads{0};

}  // namespace

std::uint64_t run_store_corrupt_reads() {
  return g_corrupt_reads.load(std::memory_order_relaxed);
}

std::string encode_run_record(const RunKey& key, const RunResult& result) {
  ByteWriter w;
  w.u32(kMagic);
  w.u32(kRunStoreFormatVersion);
  w.u64(key.hi);
  w.u64(key.lo);
  w.str(result.workload);
  w.str(result.category);
  w.str(result.type);
  // Bump kRunStoreFormatVersion whenever RunResult or the counter order of
  // core::for_each_counter changes: stale-format records must read as misses.
  core::for_each_counter([&](const char*, std::uint64_t v) { w.u64(v); },
                         result.stats);
  for (double v : result.ipc) w.f64(v);
  w.f64(result.throughput);
  w.f64(result.fairness);
  w.u64(checksum(w.bytes()));
  return std::move(w).take();
}

std::optional<RunResult> decode_run_record(const RunKey& key,
                                           std::string_view record) {
  if (record.size() < sizeof(std::uint64_t)) return std::nullopt;
  const std::string_view body =
      record.substr(0, record.size() - sizeof(std::uint64_t));

  ByteReader r(record);
  if (r.u32() != kMagic) return std::nullopt;
  if (r.u32() != kRunStoreFormatVersion) return std::nullopt;
  if (r.u64() != key.hi || r.u64() != key.lo) return std::nullopt;

  RunResult result;
  result.workload = r.str();
  result.category = r.str();
  result.type = r.str();
  core::for_each_counter([&](const char*, std::uint64_t& v) { v = r.u64(); },
                         result.stats);
  for (double& v : result.ipc) v = r.f64();
  result.throughput = r.f64();
  result.fairness = r.f64();
  const std::uint64_t stored_sum = r.u64();
  // The checksum covers everything before it; a flipped bit or a record cut
  // short (string lengths can mask truncation) fails here.
  if (!r.exhausted() || stored_sum != checksum(body)) return std::nullopt;
  return result;
}

RunStore::RunStore(std::string dir) : dir_(std::move(dir)) {}

std::string RunStore::path_of(const RunKey& key) const {
  char name[64];
  std::snprintf(name, sizeof name, "%02x/%016llx%016llx.run",
                static_cast<unsigned>(key.hi >> 56),
                static_cast<unsigned long long>(key.hi),
                static_cast<unsigned long long>(key.lo));
  return dir_ + "/" + name;
}

std::optional<RunResult> RunStore::load(const RunKey& key) const {
  // Fault point run_store.load (error → the read itself fails: a vanished
  // mount, an unreadable sector; partial → a truncated byte stream reaches
  // the decoder). Both must read as a miss, never as a wrong result.
  const faultpoint::Mode fault = faultpoint::maybe_fail("run_store.load");
  if (fault == faultpoint::Mode::kError ||
      fault == faultpoint::Mode::kEnospc) {
    return std::nullopt;
  }
  std::ifstream in(path_of(key), std::ios::binary);
  if (!in) return std::nullopt;  // absent: a plain miss, not corruption
  std::string record((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return std::nullopt;
  if (fault == faultpoint::Mode::kPartial) record.resize(record.size() / 2);
  std::optional<RunResult> decoded = decode_run_record(key, record);
  if (!decoded) {
    // The file exists but failed validation: torn write, bit rot, stale
    // format, foreign key. Count it so the sweep can report the churn.
    g_corrupt_reads.fetch_add(1, std::memory_order_relaxed);
  }
  return decoded;
}

bool RunStore::save(const RunKey& key, const RunResult& result) const {
  // Fault point run_store.save: any error-like mode fails the save exactly
  // as a full disk does — callers must degrade, never abort (the RunCache
  // drops to memory-only caching after repeated failures).
  if (faultpoint::inject_error("run_store.save")) return false;
  const std::string path = path_of(key);
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  if (ec) return false;
  return write_file_atomic(path, encode_run_record(key, result));
}

bool parse_record_name(const std::string& basename, RunKey& key) {
  // "<016hex-hi><016hex-lo>.run"
  if (basename.size() != 32 + 4 || basename.substr(32) != ".run") {
    return false;
  }
  std::uint64_t parts[2] = {0, 0};
  for (int half = 0; half < 2; ++half) {
    for (int i = 0; i < 16; ++i) {
      const char c = basename[half * 16 + i];
      std::uint64_t digit;
      if (c >= '0' && c <= '9') {
        digit = std::uint64_t(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = std::uint64_t(c - 'a') + 10;
      } else {
        return false;
      }
      parts[half] = parts[half] << 4 | digit;
    }
  }
  key.hi = parts[0];
  key.lo = parts[1];
  return true;
}

namespace {

std::string read_whole_file(const std::filesystem::path& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  ok = static_cast<bool>(in);
  if (!ok) return {};
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ok = in.good() || in.eof();
  return bytes;
}

}  // namespace

MergeResult merge_run_store(const std::string& into, const std::string& from,
                            const MergeOptions& options) {
  namespace fs = std::filesystem;
  MergeResult result;
  std::error_code ec;
  if (!fs::is_directory(from, ec) || ec) return result;  // empty source

  const RunStore dst(into);
  for (fs::recursive_directory_iterator it(from, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec) || it->path().extension() != ".run") {
      continue;
    }
    ++result.scanned;
    RunKey key;
    if (!parse_record_name(it->path().filename().string(), key)) {
      ++result.invalid;
      continue;
    }
    bool ok = false;
    const std::string record = read_whole_file(it->path(), ok);
    if (!ok || !decode_run_record(key, record)) {
      ++result.invalid;
      continue;
    }
    const std::string dst_path = dst.path_of(key);
    bool dst_ok = false;
    const std::string existing = read_whole_file(dst_path, dst_ok);
    if (dst_ok) {
      ++(existing == record ? result.identical : result.conflicts);
      continue;
    }
    if (!options.dry_run) {
      std::error_code mk_ec;
      fs::create_directories(fs::path(dst_path).parent_path(), mk_ec);
      if (mk_ec || !write_file_atomic(dst_path, record)) {
        continue;  // best-effort, like RunStore::save
      }
    }
    ++result.copied;
  }
  return result;
}

GcResult gc_run_store(const std::string& dir, const GcOptions& options) {
  namespace fs = std::filesystem;
  GcResult result;
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) return result;  // empty store

  struct Record {
    fs::path path;
    std::uint64_t bytes = 0;
    fs::file_time_type mtime;
  };
  std::vector<Record> records;
  std::vector<fs::path> orphans;
  const fs::file_time_type orphan_cutoff =
      fs::file_time_type::clock::now() - kOrphanTempAge;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().filename().string().find(".run.tmp.") !=
        std::string::npos) {
      // A writer's temp file; only a crash leaves one this old.
      std::error_code time_ec;
      const auto mtime = fs::last_write_time(it->path(), time_ec);
      if (!time_ec && mtime < orphan_cutoff) orphans.push_back(it->path());
      continue;
    }
    if (it->path().extension() != ".run") continue;
    // A record can vanish between iteration and stat (concurrent GC or a
    // writer replacing it): skip it rather than record file_size's
    // uintmax_t(-1) error sentinel as ~16 EB of store.
    std::error_code size_ec;
    std::error_code time_ec;
    Record record{it->path(), it->file_size(size_ec), {}};
    record.mtime = fs::last_write_time(record.path, time_ec);
    if (size_ec || time_ec) continue;
    records.push_back(std::move(record));
  }
  result.scanned_files = records.size();
  for (const Record& record : records) result.scanned_bytes += record.bytes;

  // Oldest first; path breaks mtime ties so a sweep is deterministic on
  // filesystems with coarse timestamps.
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });

  std::uint64_t live_files = result.scanned_files;
  std::uint64_t live_bytes = result.scanned_bytes;
  for (const Record& record : records) {
    const bool over_bytes = options.max_bytes != 0 &&
                            live_bytes > options.max_bytes;
    const bool over_files = options.max_files != 0 &&
                            live_files > options.max_files;
    if (!over_bytes && !over_files) break;
    if (!options.dry_run) {
      fs::remove(record.path, ec);
      if (ec) continue;  // busy/permission: skip, keep sweeping
    }
    ++result.deleted_files;
    result.deleted_bytes += record.bytes;
    --live_files;
    live_bytes -= record.bytes;
  }

  for (const fs::path& orphan : orphans) {
    if (!options.dry_run) {
      fs::remove(orphan, ec);
      if (ec) continue;
    }
    ++result.deleted_temp_files;
  }

  if (!options.dry_run &&
      result.deleted_files + result.deleted_temp_files > 0) {
    // Prune key-prefix subdirectories the sweep emptied (never the root).
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (!it->is_directory(ec)) continue;
      std::error_code rm_ec;
      if (fs::is_empty(it->path(), rm_ec) && !rm_ec &&
          fs::remove(it->path(), rm_ec) && !rm_ec) {
        ++result.removed_dirs;
      }
    }
  }
  return result;
}

}  // namespace clusmt::harness
