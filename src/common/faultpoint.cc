#include "common/faultpoint.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "common/hash.h"
#include "common/rng.h"

namespace clusmt::faultpoint {

namespace {

struct Point {
  Mode mode = Mode::kOff;
  double probability = 1.0;
  Xoshiro256 rng;
  std::uint64_t fired = 0;
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Point, std::less<>> points;
  // Lock-free inert-path guard: maybe_fail returns immediately while no
  // point is armed, so the hot paths of production runs pay one relaxed
  // load per fault point.
  std::atomic<bool> armed{false};
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

}  // namespace

void arm(std::string_view point, Mode mode, double probability,
         std::uint64_t seed) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  Point& p = r.points[std::string(point)];
  p.mode = mode;
  p.probability = std::min(1.0, std::max(0.0, probability));
  p.rng = stream_for(point, seed);
  r.armed.store(true, std::memory_order_relaxed);
}

void disarm_all() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  r.points.clear();
  r.armed.store(false, std::memory_order_relaxed);
}

Mode maybe_fail(std::string_view point) {
  Registry& r = registry();
  if (!r.armed.load(std::memory_order_relaxed)) return Mode::kOff;

  Mode fired = Mode::kOff;
  {
    std::lock_guard lock(r.mutex);
    const auto it = r.points.find(point);
    if (it == r.points.end()) return Mode::kOff;
    Point& p = it->second;
    if (p.mode == Mode::kOff || !p.rng.chance(p.probability)) {
      return Mode::kOff;
    }
    ++p.fired;
    fired = p.mode;
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

std::uint64_t total_fires() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::uint64_t total = 0;
  for (const auto& [_, p] : r.points) total += p.fired;
  return total;
}

}  // namespace clusmt::faultpoint
