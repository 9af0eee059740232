#include "util/options.hpp"

#include <charconv>
#include <cmath>

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

// Numbers are whole tokens converted by std::from_chars, like the graph
// readers' and FaultPlan::parse's: no leading whitespace, no '+', no hex
// floats, nothing trailing.

long long Options::get_int(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  const char* const last = text.data() + text.size();
  long long v = 0;
  const auto [end, ec] = std::from_chars(text.data(), last, v, 10);
  MGG_REQUIRE(ec != std::errc::invalid_argument && end == last,
              "option --" + key + " expects an integer, got '" + text + "'");
  MGG_REQUIRE(ec == std::errc{},
              "option --" + key + " is out of range: '" + text + "'");
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  const char* const last = text.data() + text.size();
  double v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), last, v, std::chars_format::general);
  MGG_REQUIRE(ec != std::errc::invalid_argument && end == last,
              "option --" + key + " expects a number, got '" + text + "'");
  MGG_REQUIRE(ec == std::errc{} && std::isfinite(v),
              "option --" + key + " expects a finite number in range, got '" +
                  text + "'");
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
