#include "util/options.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"

namespace mgg::util {

void Options::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Options::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string Options::get_string(const std::string& key,
                                const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long long Options::get_int(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  MGG_REQUIRE(end != it->second.c_str() && *end == '\0',
              "option --" + key + " expects an integer, got '" + it->second +
                  "'");
  MGG_REQUIRE(errno != ERANGE, "option --" + key + " is out of range: '" +
                                   it->second + "'");
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.c_str(), &end);
  MGG_REQUIRE(end != it->second.c_str() && *end == '\0',
              "option --" + key + " expects a number, got '" + it->second +
                  "'");
  MGG_REQUIRE(errno != ERANGE && std::isfinite(v),
              "option --" + key + " expects a finite number in range, got '" +
                  it->second + "'");
  return v;
}

void Options::check_unknown(std::span<const std::string_view> known) const {
  std::string bad;
  for (const auto& [key, value] : values_) {
    bool found = false;
    for (const auto k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      if (!bad.empty()) bad += ", ";
      bad += "--" + key;
    }
  }
  MGG_REQUIRE(bad.empty(), "unknown option " + bad +
                               " (check spelling; run with no arguments "
                               "for defaults)");
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  MGG_REQUIRE(false, "option --" + key + " expects a boolean, got '" + v + "'");
  return fallback;
}

}  // namespace mgg::util
