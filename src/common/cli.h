// Tiny command-line flag parser shared by bench binaries and examples.
// Supports --flag=value, --flag value, and boolean --flag forms.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace clusmt {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// The flag's whole value must parse as an integer (leading whitespace
  /// aside) in [min, max]: a malformed value like "--cycles=10k" or one out
  /// of range like "--jobs=-1" prints a usage error and exits(2) instead of
  /// silently truncating to 10 or wrapping to SIZE_MAX at the caller's cast.
  /// The fallback is returned as is.
  [[nodiscard]] std::int64_t get_int(
      const std::string& name, std::int64_t fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  /// Comma-separated list of non-negative ints ("--iq=48,16"); empty when
  /// the flag is absent. Junk tokens, empty elements ("48,,16", trailing
  /// comma), negative values and values beyond INT_MAX are all usage errors
  /// that exit(2) — arity checks are the caller's job (the list length is
  /// context-dependent).
  [[nodiscard]] std::vector<int> get_int_list(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Non-flag positional arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace clusmt
