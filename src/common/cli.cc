#include "common/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace clusmt {

namespace {

/// A malformed flag value is a fatal usage error: silently truncating
/// "--cycles=10k" to 10 cycles (what a bare strtoll did) produces a
/// plausible-looking table from the wrong experiment.
[[noreturn]] void die_bad_value(const std::string& name,
                                const std::string& value,
                                const char* expected) {
  std::fprintf(stderr, "error: --%s expects %s, got '%s'\n", name.c_str(),
               expected, value.c_str());
  std::exit(2);
}

/// Parses the whole of `text` as a base-10 int64 (leading whitespace
/// aside); false on junk, an empty token, or an out-of-range literal.
bool parse_int(const std::string& text, std::int64_t& value) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  value = std::strtoll(begin, &end, 10);
  return end != begin && *end == '\0' && errno != ERANGE;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // --flag value (when next token is not itself a flag), else boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback,
                              std::int64_t min, std::int64_t max) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  std::int64_t value = 0;
  // The whole token must parse: "10k", "", and a bare boolean "--cycles"
  // (value "true") are errors, not 10/0 — as is an out-of-range literal.
  if (!parse_int(it->second, value)) {
    die_bad_value(name, it->second, "an integer");
  }
  if (value < min || value > max) {
    std::string expected = "an integer ";
    if (max == std::numeric_limits<std::int64_t>::max()) {
      expected += ">= " + std::to_string(min);
    } else {
      expected += "in [" + std::to_string(min) + ", " + std::to_string(max) +
                  "]";
    }
    die_bad_value(name, it->second, expected.c_str());
  }
  return value;
}

std::vector<int> CliArgs::get_int_list(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return {};
  std::vector<int> values;
  const std::string& text = it->second;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    const std::string token = text.substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    std::int64_t value = 0;
    if (!parse_int(token, value)) {
      die_bad_value(name, text, "a comma-separated list of integers");
    }
    if (value < 0 || value > std::numeric_limits<int>::max()) {
      die_bad_value(name, text,
                    "a comma-separated list of non-negative integers "
                    "up to 2147483647");
    }
    values.push_back(static_cast<int>(value));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

}  // namespace clusmt
