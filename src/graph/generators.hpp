// Synthetic graph generators.
//
// The paper evaluates on three power-law families (rmat, social
// networks, web crawls) plus road networks as the contrasting
// high-diameter case. Real datasets (UF collection / Network Data
// Repository) are not redistributable here, so each family has a
// deterministic generator that reproduces the structural features the
// paper's conclusions depend on: degree distribution, |E|/|V| ratio,
// and diameter regime. See DESIGN.md §1 for the substitution rationale.
//
// All generators are deterministic in (parameters, seed).
#pragma once

#include <cstdint>

#include "graph/coo.hpp"
#include "graph/csr.hpp"

namespace mgg::graph {

/// R-MAT quadrant probabilities. The paper uses {0.57, 0.19, 0.19, 0.05}
/// (GTgraph defaults) for its rmat_* datasets and Merrill's
/// {0.45, 0.15, 0.15, 0.25} for the B40C comparison.
struct RmatParams {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  double d = 0.05;

  static RmatParams gtgraph() { return {0.57, 0.19, 0.19, 0.05}; }
  static RmatParams merrill() { return {0.45, 0.15, 0.15, 0.25}; }
};

/// R-MAT generator faithful to GTgraph: 2^scale vertices,
/// edge_factor * 2^scale edges, per-level parameter noise.
/// Returned edges are directed and may contain self loops/duplicates;
/// run Coo::to_undirected_clean() (as the paper does) before use.
/// Throws kInvalidArgument when edge_factor * 2^scale exceeds SizeT.
GraphCoo make_rmat(int scale, double edge_factor,
                   const RmatParams& params = RmatParams::gtgraph(),
                   std::uint64_t seed = 1, double noise = 0.1);

/// Erdős–Rényi style uniform random graph (directed raw edges).
GraphCoo make_uniform_random(VertexT num_vertices, SizeT num_edges,
                             std::uint64_t seed = 1);

/// 2D road-network grid: width x height lattice, each vertex connected
/// to its 4-neighborhood with occasional missing links (probability
/// `drop`), plus integer edge weights in [1, 64]. High diameter
/// (~width+height), low degree — the family where mGPU traversal
/// degrades (§VII-A).
GraphCoo make_road_grid(VertexT width, VertexT height, double drop = 0.05,
                        std::uint64_t seed = 1);

/// Social-network analog: preferential attachment (Barabási–Albert)
/// with `edges_per_vertex` links per arriving vertex plus a random
/// "friend of friend" closure pass. Power-law degrees, diameter ~5-15.
GraphCoo make_social(VertexT num_vertices, int edges_per_vertex,
                     std::uint64_t seed = 1);

/// Web-crawl analog: vertices grouped into hosts; a copying model where
/// most links stay within the host (locality) and a fraction jump to a
/// popular external page. Power-law in-degrees, diameter ~20-30 like
/// uk-2002 / arabic-2005.
GraphCoo make_web(VertexT num_hosts, VertexT pages_per_host,
                  int links_per_page, double external_fraction = 0.15,
                  std::uint64_t seed = 1);

/// Path graph 0-1-2-...-(n-1): the minimal per-iteration workload used
/// to measure synchronization overhead l in §V-B (1 vertex and 1 edge
/// per BFS iteration).
GraphCoo make_chain(VertexT num_vertices);

/// Assign uniform random integer weights in [lo, hi] to every edge
/// (the paper's SSSP setup uses [0, 64]).
void assign_random_weights(GraphCoo& coo, int lo, int hi,
                           std::uint64_t seed = 1);

/// Convenience: generate, clean, and build CSR in one call.
Graph build_undirected(GraphCoo coo);
Graph build_directed(GraphCoo coo);

}  // namespace mgg::graph
