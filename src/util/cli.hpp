#pragma once
// Minimal command-line flag parser for the examples and bench drivers.
// Supports --name=value, --name value, and boolean --flag forms.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace gpclust::util {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  i64 get_int(const std::string& name, i64 fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Exits with status 2, naming each on stderr, if any flag was given
  /// that no has()/get_*() call has asked for so far — a typo, a removed
  /// flag, or one the chosen mode ignores. Call it once every flag the
  /// invocation uses has been read, before any work starts.
  void reject_unknown() const;

 private:
  const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> read_;  ///< every name asked for
  std::vector<std::string> positional_;
};

}  // namespace gpclust::util
