// trace_tool: record, inspect and verify binary trace files — the capture
// side of the trace-driven methodology (see src/trace/trace_io.h).
//
//   ./examples/trace_tool record <path> [--category C] [--kind ilp|mem]
//                                 [--variant V] [--count N] [--seed S]
//   ./examples/trace_tool info   <path>
//   ./examples/trace_tool replay <path> [--cycles N] [--policy NAME]
//
// `record` materialises a synthetic trace to disk; `info` prints the
// header plus an instruction-mix histogram; `replay` attaches the file to
// a single-thread simulator and reports IPC — demonstrating that archived
// streams reproduce live-generator results.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/cli.h"
#include "common/table.h"
#include "core/simulator.h"
#include "harness/presets.h"
#include "trace/profile.h"
#include "trace/trace_io.h"
#include "trace/workload.h"

using namespace clusmt;

namespace {

trace::Category parse_category(const std::string& name) {
  for (int c = 0; c < trace::kNumPlainCategories; ++c) {
    const auto cat = static_cast<trace::Category>(c);
    if (trace::category_name(cat) == name) return cat;
  }
  throw std::runtime_error("unknown category: " + name);
}

int cmd_record(const CliArgs& args, const std::string& path) {
  const auto category = parse_category(args.get_string("category", "ISPEC00"));
  const std::string kind_name = args.get_string("kind", "ilp");
  if (kind_name != "ilp" && kind_name != "mem") {
    throw std::runtime_error("--kind must be ilp or mem");
  }
  const auto kind =
      kind_name == "ilp" ? trace::TraceKind::kIlp : trace::TraceKind::kMem;
  const int variant = static_cast<int>(args.get_int("variant", 0));
  const auto count = static_cast<std::size_t>(args.get_int("count", 200000, 0));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  trace::TracePool pool(seed);
  const trace::TraceSpec& spec = pool.get(category, kind, variant);
  trace::save_recorded_trace(path, spec, count);
  std::printf("recorded %zu µops of %s to %s\n", count, spec.id().c_str(),
              path.c_str());
  return 0;
}

int cmd_info(const std::string& path) {
  const trace::LoadedTrace loaded = trace::load_trace(path);
  std::printf("trace   %s\nname    %s\nseed    %llu\nµops    %zu\n\n",
              path.c_str(), loaded.name.c_str(),
              static_cast<unsigned long long>(loaded.seed),
              loaded.uops.size());

  std::size_t per_class[trace::kNumUopClasses] = {};
  std::size_t taken = 0;
  for (const auto& op : loaded.uops) {
    ++per_class[static_cast<int>(op.cls)];
    if (op.is_branch() && op.taken) ++taken;
  }
  Table table({"class", "count", "share"});
  for (int c = 0; c < trace::kNumUopClasses; ++c) {
    if (per_class[c] == 0) continue;
    table.new_row()
        .add_cell(std::string(
            trace::uop_class_name(static_cast<trace::UopClass>(c))))
        .add_cell(static_cast<double>(per_class[c]), 0)
        .add_cell(loaded.uops.empty()
                      ? 0.0
                      : static_cast<double>(per_class[c]) /
                            static_cast<double>(loaded.uops.size()));
  }
  std::printf("%s\n", table.render_text().c_str());
  const std::size_t branches =
      per_class[static_cast<int>(trace::UopClass::kBranch)];
  if (branches > 0) {
    std::printf("taken-branch ratio: %.3f\n",
                static_cast<double>(taken) / static_cast<double>(branches));
  }
  return 0;
}

int cmd_replay(const CliArgs& args, const std::string& path) {
  const trace::LoadedTrace loaded = trace::load_trace(path);
  const Cycle cycles = static_cast<Cycle>(args.get_int("cycles", 50000, 0));
  const std::string policy_name = args.get_string("policy", "Icount");
  const auto kind = policy::parse_policy_kind(policy_name);
  if (!kind) {
    std::fprintf(stderr, "unknown policy '%s'\n", policy_name.c_str());
    return 1;
  }

  core::SimConfig config = harness::paper_baseline();
  config.num_threads = 1;
  config.policy = *kind;
  core::Simulator sim(config);
  // Replayed files carry no profile; wrong-path synthesis falls back to a
  // default profile keyed by the stored seed.
  trace::TraceProfile profile;
  profile.name = loaded.name;
  sim.attach_thread(0, loaded.make_source(), &profile, loaded.seed);
  sim.run(cycles);

  std::printf("replayed %s for %llu cycles under %s\n", path.c_str(),
              static_cast<unsigned long long>(cycles), policy_name.c_str());
  std::printf("  IPC            %.3f\n", sim.stats().ipc(0));
  std::printf("  L2 load misses %llu\n",
              static_cast<unsigned long long>(sim.stats().load_l2_misses));
  std::printf("  mispredicts    %llu\n",
              static_cast<unsigned long long>(
                  sim.stats().mispredicts_resolved));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s record|info|replay <path> [options]\n", argv[0]);
    return 1;
  }
  const std::string command = argv[1];
  const std::string path = argv[2];
  const CliArgs args(argc - 2, argv + 2);
  try {
    if (command == "record") return cmd_record(args, path);
    if (command == "info") return cmd_info(path);
    if (command == "replay") return cmd_replay(args, path);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
