#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

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

bool next_content_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '%' || line[0] == '#') continue;
    return true;
  }
  return false;
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
  MGG_CHECK(next_content_line(in, line), Status::kIoError,
            "missing size line");
  std::istringstream ss(line);
  long long rows = 0, cols = 0, entries = 0;
  ss >> rows >> cols >> entries;
  MGG_CHECK(rows > 0 && cols > 0 && entries >= 0, Status::kIoError,
            "bad size line: " + line);
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
  coo.reserve(static_cast<std::size_t>(
                  std::min(entries, kMaxReservedEntries)) *
              (symmetric ? 2 : 1));
  for (long long e = 0; e < entries; ++e) {
    MGG_CHECK(next_content_line(in, line), Status::kIoError,
              "truncated entry list");
    std::istringstream es(line);
    long long u = 0, v = 0;
    double w = 1.0;
    es >> u >> v;
    MGG_CHECK(u >= 1 && v >= 1 && u <= rows && v <= cols, Status::kIoError,
              "entry index out of range");
    if (!pattern) es >> w;
    const auto su = static_cast<VertexT>(u - 1);
    const auto sv = static_cast<VertexT>(v - 1);
    if (pattern) {
      coo.add_edge(su, sv);
      if (symmetric && su != sv) coo.add_edge(sv, su);
    } else {
      coo.add_edge(su, sv, static_cast<ValueT>(w));
      if (symmetric && su != sv) coo.add_edge(sv, su, static_cast<ValueT>(w));
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
  out << "%%MatrixMarket matrix coordinate "
      << (weighted ? "real" : "pattern") << " general\n";
  out << coo.num_vertices << " " << coo.num_vertices << " "
      << coo.src.size() << "\n";
  for (std::size_t e = 0; e < coo.src.size(); ++e) {
    out << (coo.src[e] + 1) << " " << (coo.dst[e] + 1);
    if (weighted) out << " " << coo.values[e];
    out << "\n";
  }
}

void save_matrix_market(const std::string& path, const GraphCoo& coo) {
  std::ofstream out(path);
  MGG_CHECK(out.good(), Status::kIoError, "cannot open " + path);
  write_matrix_market(out, coo);
}

GraphCoo read_edge_list(std::istream& in) {
  GraphCoo coo;
  std::string line;
  long long max_id = -1;
  bool weighted = false;
  bool first_edge = true;
  while (next_content_line(in, line)) {
    std::istringstream es(line);
    long long u = -1, v = -1;
    double w = 0.0;
    es >> u >> v;
    MGG_CHECK(u >= 0 && v >= 0, Status::kIoError,
              "bad edge list line: " + line);
    MGG_CHECK(u < kInvalidVertex && v < kInvalidVertex, Status::kIoError,
              "edge list vertex ID at or above " +
                  std::to_string(kInvalidVertex) + ": " + line);
    const bool has_w = static_cast<bool>(es >> w);
    if (first_edge) {
      weighted = has_w;
      first_edge = false;
    } else {
      MGG_CHECK(weighted == has_w, Status::kIoError,
                "mixed weighted/unweighted edge lines");
    }
    if (weighted) {
      coo.add_edge(static_cast<VertexT>(u), static_cast<VertexT>(v),
                   static_cast<ValueT>(w));
    } else {
      coo.add_edge(static_cast<VertexT>(u), static_cast<VertexT>(v));
    }
    max_id = std::max({max_id, u, v});
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
  for (std::size_t e = 0; e < coo.src.size(); ++e) {
    out << coo.src[e] << " " << coo.dst[e];
    if (coo.has_values()) out << " " << coo.values[e];
    out << "\n";
  }
}

void save_edge_list(const std::string& path, const GraphCoo& coo) {
  std::ofstream out(path);
  MGG_CHECK(out.good(), Status::kIoError, "cannot open " + path);
  write_edge_list(out, coo);
}

}  // namespace mgg::graph
