// Coordinate-format (edge list) graph container.
//
// COO is the interchange format: generators and file loaders produce
// COO; the framework consumes CSR built via Csr::from_coo(). The
// cleanup passes here implement the paper's §VII-A preprocessing:
// "all graphs we use are converted to undirected graphs; self-loops
// and duplicated edges are removed."
#pragma once

#include <cstddef>
#include <limits>
#include <numeric>
#include <type_traits>
#include <vector>

#include "graph/types.hpp"
#include "util/error.hpp"

namespace mgg::graph {

template <typename V = VertexT, typename S = SizeT, typename W = ValueT>
struct Coo {
  using VertexType = V;
  using SizeType = S;
  using ValueType = W;

  V num_vertices = 0;
  std::vector<V> src;
  std::vector<V> dst;
  std::vector<W> values;  ///< empty when the graph is unweighted

  S num_edges() const noexcept { return static_cast<S>(src.size()); }
  bool has_values() const noexcept { return !values.empty(); }

  void reserve(std::size_t edges) {
    src.reserve(edges);
    dst.reserve(edges);
  }

  void add_edge(V u, V v) {
    src.push_back(u);
    dst.push_back(v);
  }

  void add_edge(V u, V v, W w) {
    src.push_back(u);
    dst.push_back(v);
    values.push_back(w);
  }

  /// Drop edges with src == dst.
  void remove_self_loops() {
    std::size_t keep = 0;
    for (std::size_t e = 0; e < src.size(); ++e) {
      if (src[e] == dst[e]) continue;
      src[keep] = src[e];
      dst[keep] = dst[e];
      if (has_values()) values[keep] = values[e];
      ++keep;
    }
    src.resize(keep);
    dst.resize(keep);
    if (has_values()) values.resize(keep);
  }

  /// Add the reverse of every edge (making the graph undirected).
  /// Combine with remove_duplicates() to get a clean symmetric graph.
  void symmetrize() {
    const std::size_t n = src.size();
    src.reserve(2 * n);
    dst.reserve(2 * n);
    if (has_values()) values.reserve(2 * n);
    for (std::size_t e = 0; e < n; ++e) {
      src.push_back(dst[e]);
      dst.push_back(src[e]);
      if (has_values()) values.push_back(values[e]);
    }
  }

  /// Sort edges by (src, dst) and remove duplicates, keeping the first
  /// occurrence's value (deterministic given a deterministic input order).
  ///
  /// O(E + V): two stable counting sorts of the edge positions, by dst
  /// and then by src, leave them in (src, dst, input position) order, so
  /// the first edge of each run of equal endpoints is its first
  /// occurrence. The counts are indexed by endpoint, hence the endpoint
  /// check up front.
  void remove_duplicates() {
    MGG_REQUIRE(src.size() <= std::numeric_limits<S>::max(),
                "edge count exceeds the edge-index type");
    validate();
    const std::size_t m = src.size();
    const auto sort_by = [&](const std::vector<V>& key, auto position) {
      std::vector<S> start(static_cast<std::size_t>(num_vertices) + 1, 0);
      for (const V k : key) ++start[static_cast<std::size_t>(k) + 1];
      std::partial_sum(start.begin(), start.end(), start.begin());
      std::vector<S> out(m);
      for (std::size_t i = 0; i < m; ++i) {
        const S e = position(i);
        out[start[key[e]]++] = e;
      }
      return out;
    };
    std::vector<S> order =
        sort_by(dst, [](std::size_t i) { return static_cast<S>(i); });
    order = sort_by(src, [&order](std::size_t i) { return order[i]; });

    std::size_t kept = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const S e = order[i];
      if (kept > 0 && src[order[kept - 1]] == src[e] &&
          dst[order[kept - 1]] == dst[e]) {
        continue;
      }
      order[kept++] = e;
    }
    const auto gather = [&](auto& array) {
      std::remove_reference_t<decltype(array)> out(kept);
      for (std::size_t i = 0; i < kept; ++i) out[i] = array[order[i]];
      array = std::move(out);
    };
    gather(src);
    gather(dst);
    if (has_values()) gather(values);
  }

  /// Full cleanup pipeline from §VII-A: drop self loops, make the graph
  /// undirected, and deduplicate.
  void to_undirected_clean() {
    remove_self_loops();
    symmetrize();
    remove_duplicates();
  }

  /// Directed cleanup: drop self loops and duplicates only.
  void to_directed_clean() {
    remove_self_loops();
    remove_duplicates();
  }

  /// Validate all endpoints are < num_vertices.
  void validate() const {
    for (std::size_t e = 0; e < src.size(); ++e) {
      MGG_REQUIRE(src[e] < num_vertices && dst[e] < num_vertices,
                  "edge endpoint out of range");
    }
    if (has_values()) {
      MGG_REQUIRE(values.size() == src.size(),
                  "value array length mismatches edge count");
    }
  }
};

using Coo32 = Coo<std::uint32_t, std::uint32_t, float>;
using Coo64 = Coo<std::uint64_t, std::uint64_t, float>;

/// The default edge-list type used by generators and loaders.
using GraphCoo = Coo<VertexT, SizeT, ValueT>;

}  // namespace mgg::graph
