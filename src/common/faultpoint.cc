#include "common/faultpoint.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/hash.h"
#include "common/rng.h"

namespace clusmt::faultpoint {

namespace {

struct Point {
  ArmSpec spec;
  Xoshiro256 rng;
  std::uint64_t fired = 0;
  bool retired = false;  // max_fires reached: stays for counters, never fires
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Point, std::less<>> points;
  // Lock-free inert-path guard: maybe_fail returns immediately while zero
  // points are armed, so the hot paths of production runs pay one relaxed
  // load per fault point.
  std::atomic<std::size_t> armed{0};
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Firing streams are independent per (seed, point) and identical from run
/// to run, so a schedule replays the same fault sequence.
Xoshiro256 stream_for(std::string_view point, std::uint64_t seed) {
  Fnv1a h;
  h.add(point);
  return Xoshiro256(hash_combine(seed, h.digest()));
}

// The env parse must go through these _impl entry points, never the public
// arm()/arm_from_spec(): those call ensure_env_armed() first, and
// re-entering the call_once from inside its own callable deadlocks.
void arm_impl(std::string_view point, const ArmSpec& spec);
bool arm_from_spec_impl(std::string_view schedule);

void ensure_env_armed() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (const char* env = std::getenv("CLUSMT_FAULTS")) {
      if (!arm_from_spec_impl(env)) {
        std::fprintf(stderr,
                     "warning: malformed CLUSMT_FAULTS entry ignored "
                     "(format: point:mode[:prob[:seed[:max_fires]]])\n");
      }
    }
  });
}

void recount_armed_locked(Registry& r) {
  std::size_t n = 0;
  for (const auto& [_, p] : r.points) {
    if (p.spec.mode != Mode::kOff && !p.retired) ++n;
  }
  r.armed.store(n, std::memory_order_relaxed);
}

}  // namespace

bool parse_mode(std::string_view name, Mode& out) {
  if (name == "off") return out = Mode::kOff, true;
  if (name == "error") return out = Mode::kError, true;
  if (name == "partial") return out = Mode::kPartial, true;
  if (name == "crash") return out = Mode::kCrash, true;
  if (name == "enospc") return out = Mode::kEnospc, true;
  return false;
}

namespace {

void arm_impl(std::string_view point, const ArmSpec& spec) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  Point& p = r.points[std::string(point)];
  p.spec = spec;
  p.spec.probability = std::min(1.0, std::max(0.0, spec.probability));
  p.rng = stream_for(point, spec.seed);
  p.retired = false;
  recount_armed_locked(r);
}

}  // namespace

void arm(std::string_view point, const ArmSpec& spec) {
  ensure_env_armed();
  arm_impl(point, spec);
}

void arm(std::string_view point, Mode mode, double probability,
         std::uint64_t seed) {
  arm(point, ArmSpec{.mode = mode, .probability = probability, .seed = seed});
}

bool disarm(std::string_view point) {
  ensure_env_armed();
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  const auto it = r.points.find(point);
  if (it == r.points.end()) return false;
  r.points.erase(it);
  recount_armed_locked(r);
  return true;
}

void disarm_all() {
  ensure_env_armed();
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  r.points.clear();
  r.armed.store(0, std::memory_order_relaxed);
}

namespace {

bool arm_from_spec_impl(std::string_view schedule) {
  // Entries split on ',' or ';', fields on ':'. Trailing fields optional;
  // whitespace around entries and fields is tolerated (env values get
  // formatted by humans and CI YAML).
  const auto trim = [](std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
      s.remove_prefix(1);
    }
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
      s.remove_suffix(1);
    }
    return s;
  };
  std::size_t begin = 0;
  while (begin <= schedule.size()) {
    std::size_t end = schedule.find_first_of(",;", begin);
    if (end == std::string_view::npos) end = schedule.size();
    const std::string_view entry = trim(schedule.substr(begin, end - begin));
    begin = end + 1;
    if (entry.empty()) {
      if (end == schedule.size()) break;
      continue;
    }

    std::string_view fields[5];
    std::size_t count = 0;
    for (std::size_t from = 0;;) {
      if (count == std::size(fields)) return false;  // a sixth field
      const std::size_t colon = entry.find(':', from);
      fields[count++] = trim(entry.substr(from, colon - from));
      if (colon == std::string_view::npos) break;
      from = colon + 1;
    }
    if (count < 2 || fields[0].empty()) return false;

    ArmSpec spec;
    if (!parse_mode(fields[1], spec.mode)) return false;
    const auto number = [](std::string_view s, double& out) {
      char* rest = nullptr;
      const std::string owned(s);
      out = std::strtod(owned.c_str(), &rest);
      return rest != nullptr && *rest == '\0' && !owned.empty();
    };
    double value = 0;
    if (count > 2) {
      if (!number(fields[2], value)) return false;
      spec.probability = value;
    }
    if (count > 3) {
      if (!number(fields[3], value) || value < 0) return false;
      spec.seed = static_cast<std::uint64_t>(value);
    }
    if (count > 4) {
      if (!number(fields[4], value) || value < 0) return false;
      spec.max_fires = static_cast<std::uint64_t>(value);
    }
    arm_impl(fields[0], spec);
    if (end == schedule.size()) break;
  }
  return true;
}

}  // namespace

bool arm_from_spec(std::string_view schedule) {
  ensure_env_armed();
  return arm_from_spec_impl(schedule);
}

Mode maybe_fail(std::string_view point) {
  ensure_env_armed();
  Registry& r = registry();
  if (r.armed.load(std::memory_order_relaxed) == 0) return Mode::kOff;

  Mode fired = Mode::kOff;
  {
    std::lock_guard lock(r.mutex);
    const auto it = r.points.find(point);
    if (it == r.points.end()) return Mode::kOff;
    Point& p = it->second;
    if (p.spec.mode == Mode::kOff || p.retired) return Mode::kOff;
    if (!p.rng.chance(p.spec.probability)) return Mode::kOff;
    ++p.fired;
    if (p.spec.max_fires != 0 && p.fired >= p.spec.max_fires) {
      p.retired = true;
      recount_armed_locked(r);
    }
    fired = p.spec.mode;
  }
  if (fired == Mode::kCrash) {
    // The whole process dies here, as a power cut or kill -9 would land at
    // this exact point: no destructors, no atexit, no flushing.
    ::_exit(kCrashExitCode);
  }
  return fired;
}

bool inject_error(std::string_view point) {
  const Mode mode = maybe_fail(point);
  return mode == Mode::kError || mode == Mode::kEnospc ||
         mode == Mode::kPartial;
}

std::uint64_t fires(std::string_view point) {
  ensure_env_armed();
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  const auto it = r.points.find(point);
  return it == r.points.end() ? 0 : it->second.fired;
}

std::uint64_t total_fires() {
  ensure_env_armed();
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::uint64_t total = 0;
  for (const auto& [_, p] : r.points) total += p.fired;
  return total;
}

std::size_t armed_count() {
  ensure_env_armed();
  return registry().armed.load(std::memory_order_relaxed);
}

}  // namespace clusmt::faultpoint
