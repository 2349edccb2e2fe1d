#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>

namespace gpclust::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";  // bare boolean flag
    }
  }
}

const std::string* CliArgs::find(const std::string& name) const {
  read_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

bool CliArgs::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

i64 CliArgs::get_int(const std::string& name, i64 fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : std::strtoll(value->c_str(), nullptr, 10);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : std::strtod(value->c_str(), nullptr);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return *value == "true" || *value == "1" || *value == "yes";
}

void CliArgs::reject_unknown() const {
  bool unknown = false;
  for (const auto& [name, value] : flags_) {
    if (read_.count(name) > 0) continue;
    std::fprintf(stderr,
                 "error: unused flag --%s (unknown, or ignored in this mode)\n",
                 name.c_str());
    unknown = true;
  }
  if (unknown) std::exit(2);
}

}  // namespace gpclust::util
