// Tiny command-line option parser for examples and bench binaries.
//
// Accepts `--key=value`, `--key value`, and boolean flags `--key`.
// Unknown positional arguments are collected in order. get_int and
// get_double take a value only as a whole std::from_chars token.
#pragma once

#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mgg::util {

class Options {
 public:
  Options() = default;
  Options(int argc, char** argv) { parse(argc, argv); }

  void parse(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Throw kInvalidArgument if any parsed `--key` is not in `known`,
  /// naming the offending flag(s) — so `--parition=metis` fails loudly
  /// instead of silently running the default. Call after every key the
  /// program understands is listed.
  void check_unknown(std::span<const std::string_view> known) const;
  void check_unknown(std::initializer_list<std::string_view> known) const {
    check_unknown(std::span<const std::string_view>(known.begin(),
                                                    known.size()));
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace mgg::util
