// The command-line flag parser every galaxy tool shares.
//
// Accepts `--name value`, `--name=value` and boolean `--name` in any order.
// A `--name` is boolean (value "true") when it is the last argument or the
// next argument also starts with `--`; anything else after it, including a
// negative number such as `-5`, is its value. Numeric accessors parse the
// whole value strictly and return a usage error instead of throwing, and
// CheckAllowed turns a misspelled flag into one; the tools exit 2 on either.

#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <set>
#include <string>

#include "common/status.h"

namespace galaxy::tools {

class Flags {
 public:
  /// Parses argv[first..argc).
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        error_ = "unexpected argument: " + arg;
        return;
      }
      size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg.substr(2)] = argv[++i];
      } else {
        values_[arg.substr(2)] = "true";
      }
    }
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// False, with error() naming the flag, when a flag outside `allowed`
  /// was given.
  bool CheckAllowed(std::initializer_list<const char*> allowed) {
    std::set<std::string> names(allowed.begin(), allowed.end());
    for (const auto& [name, value] : values_) {
      if (names.count(name) == 0) {
        error_ = "unknown flag: --" + name;
        return false;
      }
    }
    return true;
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  Result<int64_t> GetInt(const std::string& name, int64_t fallback) const {
    if (!Has(name)) return fallback;
    const std::string& text = values_.at(name);
    char* end = nullptr;
    errno = 0;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size() || text.empty()) {
      return Status::InvalidArgument("--" + name +
                                     " expects an integer, got: " + text);
    }
    return static_cast<int64_t>(v);
  }

  Result<double> GetDouble(const std::string& name, double fallback) const {
    if (!Has(name)) return fallback;
    const std::string& text = values_.at(name);
    char* end = nullptr;
    errno = 0;
    double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size() || text.empty()) {
      return Status::InvalidArgument("--" + name +
                                     " expects a number, got: " + text);
    }
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

}  // namespace galaxy::tools
