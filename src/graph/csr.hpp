// Compressed-sparse-row graph container — the framework's working format.
//
// Each virtual GPU holds one Csr subgraph produced by the partitioner.
// Neighbor lists are sorted, enabling binary-search load balancing in
// the advance operator and deterministic iteration everywhere.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "graph/coo.hpp"
#include "graph/types.hpp"
#include "util/error.hpp"

namespace mgg::graph {

template <typename V = VertexT, typename S = SizeT, typename W = ValueT>
struct Csr {
  using VertexType = V;
  using SizeType = S;
  using ValueType = W;

  V num_vertices = 0;
  S num_edges = 0;
  std::vector<S> row_offsets;   ///< size num_vertices + 1
  std::vector<V> col_indices;   ///< size num_edges
  std::vector<W> edge_values;   ///< size num_edges or empty

  bool has_values() const noexcept { return !edge_values.empty(); }

  /// Build from COO via counting sort on source vertices. O(V + E).
  static Csr from_coo(const Coo<V, S, W>& coo, bool sort_neighbors = true) {
    coo.validate();
    Csr g;
    g.num_vertices = coo.num_vertices;
    g.num_edges = coo.num_edges();
    g.row_offsets.assign(static_cast<std::size_t>(g.num_vertices) + 1, 0);
    for (std::size_t e = 0; e < coo.src.size(); ++e) {
      ++g.row_offsets[coo.src[e] + 1];
    }
    for (std::size_t v = 0; v < g.num_vertices; ++v) {
      g.row_offsets[v + 1] += g.row_offsets[v];
    }
    g.col_indices.resize(g.num_edges);
    if (coo.has_values()) g.edge_values.resize(g.num_edges);
    std::vector<S> cursor(g.row_offsets.begin(), g.row_offsets.end() - 1);
    for (std::size_t e = 0; e < coo.src.size(); ++e) {
      const S slot = cursor[coo.src[e]]++;
      g.col_indices[slot] = coo.dst[e];
      if (coo.has_values()) g.edge_values[slot] = coo.values[e];
    }
    if (sort_neighbors) g.sort_neighbor_lists();
    return g;
  }

  /// Sort each vertex's neighbor list by (destination, value), keeping
  /// values paired with their edges. A list already in that order is
  /// left as it is: from_coo of a deduplicated COO emits every list
  /// sorted, since its counting sort keeps the (src, dst) input order.
  /// The check covers values too, so repeated columns (a multigraph from
  /// a reader, or its transpose) still come out in (column, value) order.
  void sort_neighbor_lists() {
    const auto in_order = [this](S begin, S end) {
      for (S e = begin + 1; e < end; ++e) {
        if (col_indices[e] < col_indices[e - 1]) return false;
        if (has_values() && col_indices[e] == col_indices[e - 1] &&
            edge_values[e] < edge_values[e - 1]) {
          return false;
        }
      }
      return true;
    };
    std::vector<std::pair<V, W>> pairs;
    for (std::size_t v = 0; v < num_vertices; ++v) {
      const S begin = row_offsets[v];
      const S end = row_offsets[v + 1];
      if (in_order(begin, end)) continue;
      if (!has_values()) {
        std::sort(col_indices.begin() + begin, col_indices.begin() + end);
        continue;
      }
      pairs.clear();
      for (S e = begin; e < end; ++e) pairs.emplace_back(col_indices[e], edge_values[e]);
      std::sort(pairs.begin(), pairs.end());
      for (S e = begin; e < end; ++e) {
        col_indices[e] = pairs[e - begin].first;
        edge_values[e] = pairs[e - begin].second;
      }
    }
  }

  S degree(V v) const {
    return row_offsets[v + 1] - row_offsets[v];
  }

  std::span<const V> neighbors(V v) const {
    return {col_indices.data() + row_offsets[v],
            static_cast<std::size_t>(degree(v))};
  }

  std::span<const W> neighbor_values(V v) const {
    MGG_ASSERT(has_values(), "graph has no edge values");
    return {edge_values.data() + row_offsets[v],
            static_cast<std::size_t>(degree(v))};
  }

  /// Edge ids incident to v are [row_offsets[v], row_offsets[v+1]).
  std::pair<S, S> edge_range(V v) const {
    return {row_offsets[v], row_offsets[v + 1]};
  }

  S max_degree() const {
    S best = 0;
    for (std::size_t v = 0; v < num_vertices; ++v)
      best = std::max(best, degree(static_cast<V>(v)));
    return best;
  }

  double average_degree() const {
    return num_vertices == 0
               ? 0.0
               : static_cast<double>(num_edges) / static_cast<double>(num_vertices);
  }

  /// Transpose (reverse every edge). Used by DOBFS's pull traversal on
  /// directed graphs and by PR on in-edges.
  Csr transpose() const {
    Coo<V, S, W> rev;
    rev.num_vertices = num_vertices;
    rev.reserve(num_edges);
    if (has_values()) rev.values.reserve(num_edges);
    for (std::size_t v = 0; v < num_vertices; ++v) {
      for (S e = row_offsets[v]; e < row_offsets[v + 1]; ++e) {
        if (has_values()) {
          rev.add_edge(col_indices[e], static_cast<V>(v), edge_values[e]);
        } else {
          rev.add_edge(col_indices[e], static_cast<V>(v));
        }
      }
    }
    return from_coo(rev);
  }

  /// Structural equality (useful in tests).
  bool operator==(const Csr& other) const {
    return num_vertices == other.num_vertices && num_edges == other.num_edges &&
           row_offsets == other.row_offsets &&
           col_indices == other.col_indices && edge_values == other.edge_values;
  }

  /// Bytes of storage a real GPU would need for this subgraph.
  std::size_t storage_bytes() const {
    return row_offsets.size() * sizeof(S) + col_indices.size() * sizeof(V) +
           edge_values.size() * sizeof(W);
  }
};

using Csr32 = Csr<std::uint32_t, std::uint32_t, float>;
using Csr64 = Csr<std::uint64_t, std::uint64_t, float>;

/// The default graph type used by the framework and primitives.
using Graph = Csr<VertexT, SizeT, ValueT>;

}  // namespace mgg::graph
