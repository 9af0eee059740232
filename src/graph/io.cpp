#include "graph/io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace mgg::graph {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Entries reserved up front from a MatrixMarket size line; beyond
/// this the COO grows as entries actually arrive, so a header that
/// overstates its entry count ends in "truncated entry list" rather
/// than a huge allocation.
constexpr long long kMaxReservedEntries = 1 << 20;

/// Digits that make every written weight read back bit-exactly.
constexpr int kWeightDigits = std::numeric_limits<ValueT>::max_digits10;

/// The next line of `in` that holds a token and is not a `%` / `#`
/// comment, split on whitespace into `tokens` (views into `line`).
/// False at end of stream.
bool next_content_line(std::istream& in, std::string& line,
                       std::vector<std::string_view>& tokens) {
  while (std::getline(in, line)) {
    if (!line.empty() && (line[0] == '%' || line[0] == '#')) continue;
    tokens.clear();
    const std::string_view text(line);
    std::size_t i = 0;
    const auto space = [&](std::size_t k) {
      return std::isspace(static_cast<unsigned char>(text[k])) != 0;
    };
    while (i < text.size()) {
      while (i < text.size() && space(i)) ++i;
      const std::size_t begin = i;
      while (i < text.size() && !space(i)) ++i;
      if (i > begin) tokens.push_back(text.substr(begin, i - begin));
    }
    if (!tokens.empty()) return true;
  }
  return false;
}

/// The whole token converted by std::from_chars: no trailing
/// characters, no overflow, and for unsigned `T` no sign.
template <typename T>
bool parse_whole(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// The whole token as a finite ValueT.
bool parse_weight(std::string_view token, ValueT& out) {
  return parse_whole(token, out) && std::isfinite(out);
}

}  // namespace

GraphCoo read_matrix_market(std::istream& in) {
  std::string header;
  MGG_CHECK(std::getline(in, header), Status::kIoError,
            "empty MatrixMarket stream");
  MGG_CHECK(header.rfind("%%MatrixMarket", 0) == 0, Status::kIoError,
            "missing %%MatrixMarket banner");

  std::istringstream hs(header);
  std::string banner, object, format, field, symmetry;
  hs >> banner >> object >> format >> field >> symmetry;
  object = lower(object);
  format = lower(format);
  field = lower(field);
  symmetry = lower(symmetry);
  MGG_CHECK(object == "matrix" && format == "coordinate", Status::kUnsupported,
            "only coordinate matrices are supported");
  const bool pattern = (field == "pattern");
  MGG_CHECK(pattern || field == "real" || field == "integer",
            Status::kUnsupported, "unsupported field type " + field);
  const bool symmetric = (symmetry == "symmetric");
  MGG_CHECK(symmetric || symmetry == "general", Status::kUnsupported,
            "unsupported symmetry " + symmetry);

  std::string line;
  std::vector<std::string_view> tokens;
  MGG_CHECK(next_content_line(in, line, tokens), Status::kIoError,
            "missing size line");
  unsigned long long rows = 0, cols = 0, entries = 0;
  MGG_CHECK(tokens.size() == 3 && parse_whole(tokens[0], rows) &&
                parse_whole(tokens[1], cols) &&
                parse_whole(tokens[2], entries) && rows > 0 && cols > 0,
            Status::kIoError, "bad size line: " + line);
  // Row/column n becomes vertex n-1, which must stay below the
  // kInvalidVertex sentinel.
  MGG_CHECK(rows <= kInvalidVertex && cols <= kInvalidVertex,
            Status::kIoError,
            "size line exceeds " + std::to_string(kInvalidVertex) +
                " rows or columns: " + line);
  MGG_CHECK(entries <= std::numeric_limits<SizeT>::max(), Status::kIoError,
            "size line exceeds " +
                std::to_string(std::numeric_limits<SizeT>::max()) +
                " entries: " + line);

  GraphCoo coo;
  coo.num_vertices = static_cast<VertexT>(std::max(rows, cols));
  coo.reserve(static_cast<std::size_t>(std::min<unsigned long long>(
                  entries, kMaxReservedEntries)) *
              (symmetric ? 2 : 1));
  const std::size_t want_tokens = pattern ? 2 : 3;
  for (unsigned long long e = 0; e < entries; ++e) {
    MGG_CHECK(next_content_line(in, line, tokens), Status::kIoError,
              "truncated entry list");
    unsigned long long u = 0, v = 0;
    ValueT w = 1;
    MGG_CHECK(tokens.size() == want_tokens && parse_whole(tokens[0], u) &&
                  parse_whole(tokens[1], v) &&
                  (pattern || parse_weight(tokens[2], w)),
              Status::kIoError, "bad MatrixMarket entry: " + line);
    MGG_CHECK(u >= 1 && v >= 1 && u <= rows && v <= cols, Status::kIoError,
              "entry index out of range: " + line);
    const auto su = static_cast<VertexT>(u - 1);
    const auto sv = static_cast<VertexT>(v - 1);
    if (pattern) {
      coo.add_edge(su, sv);
      if (symmetric && su != sv) coo.add_edge(sv, su);
    } else {
      coo.add_edge(su, sv, w);
      if (symmetric && su != sv) coo.add_edge(sv, su, w);
    }
  }
  return coo;
}

GraphCoo load_matrix_market(const std::string& path) {
  std::ifstream in(path);
  MGG_CHECK(in.good(), Status::kIoError, "cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const GraphCoo& coo) {
  const bool weighted = coo.has_values();
  const std::streamsize precision = out.precision(kWeightDigits);
  out << "%%MatrixMarket matrix coordinate "
      << (weighted ? "real" : "pattern") << " general\n";
  out << coo.num_vertices << " " << coo.num_vertices << " "
      << coo.src.size() << "\n";
  for (std::size_t e = 0; e < coo.src.size(); ++e) {
    out << (coo.src[e] + 1) << " " << (coo.dst[e] + 1);
    if (weighted) out << " " << coo.values[e];
    out << "\n";
  }
  out.precision(precision);
}

GraphCoo read_edge_list(std::istream& in) {
  GraphCoo coo;
  std::string line;
  std::vector<std::string_view> tokens;
  long long max_id = -1;
  bool weighted = false;
  bool first_edge = true;
  while (next_content_line(in, line, tokens)) {
    unsigned long long u = 0, v = 0;
    ValueT w = 0;
    const bool has_w = tokens.size() == 3;
    MGG_CHECK((tokens.size() == 2 || has_w) && parse_whole(tokens[0], u) &&
                  parse_whole(tokens[1], v) &&
                  (!has_w || parse_weight(tokens[2], w)),
              Status::kIoError, "bad edge list line: " + line);
    MGG_CHECK(u < kInvalidVertex && v < kInvalidVertex, Status::kIoError,
              "edge list vertex ID at or above " +
                  std::to_string(kInvalidVertex) + ": " + line);
    if (first_edge) {
      weighted = has_w;
      first_edge = false;
    } else {
      MGG_CHECK(weighted == has_w, Status::kIoError,
                "mixed weighted/unweighted edge lines");
    }
    if (weighted) {
      coo.add_edge(static_cast<VertexT>(u), static_cast<VertexT>(v), w);
    } else {
      coo.add_edge(static_cast<VertexT>(u), static_cast<VertexT>(v));
    }
    max_id = std::max({max_id, static_cast<long long>(u),
                       static_cast<long long>(v)});
  }
  coo.num_vertices = static_cast<VertexT>(max_id + 1);
  return coo;
}

GraphCoo load_edge_list(const std::string& path) {
  std::ifstream in(path);
  MGG_CHECK(in.good(), Status::kIoError, "cannot open " + path);
  return read_edge_list(in);
}

void write_edge_list(std::ostream& out, const GraphCoo& coo) {
  const std::streamsize precision = out.precision(kWeightDigits);
  for (std::size_t e = 0; e < coo.src.size(); ++e) {
    out << coo.src[e] << " " << coo.dst[e];
    if (coo.has_values()) out << " " << coo.values[e];
    out << "\n";
  }
  out.precision(precision);
}

void save_edge_list(const std::string& path, const GraphCoo& coo) {
  std::ofstream out(path);
  MGG_CHECK(out.good(), Status::kIoError, "cannot open " + path);
  write_edge_list(out, coo);
}

}  // namespace mgg::graph
