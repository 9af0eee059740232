#include "graph/generators.hpp"

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "util/random.hpp"

namespace mgg::graph {

using util::Rng;

namespace {

/// `factor * n` edges as a SizeT. A product at or past 2^digits is
/// rejected before the conversion, which would be undefined behaviour.
SizeT edge_count(int scale, double factor, VertexT n) {
  const double edges = factor * static_cast<double>(n);
  if (edges < std::ldexp(1.0, std::numeric_limits<SizeT>::digits)) {
    return static_cast<SizeT>(edges);
  }
  std::ostringstream what;
  what << "rmat scale " << scale << " with edge factor "
       << std::setprecision(17) << factor << " exceeds "
       << std::numeric_limits<SizeT>::max() << " edges";
  throw Error(Status::kInvalidArgument, what.str());
}

/// One level of the R-MAT descent: shift the quadrant that `r` picks
/// into u and v. The flags mirror the else-if chain
///   r < a: (0,0); else r < a+b: (0,1); else r < a+b+c: (1,0); else (1,1)
/// term by term (`ab` = a + b, `abc` = a + b + c, summed in that order
/// by the caller), so it picks the same quadrant for any probabilities,
/// including the negative ones large noise can perturb into; the
/// shorter "u bit = r >= a+b" does not. Bitwise & and | keep it free of
/// branches; && and || compile back into them.
inline void descend(double r, double a, double ab, double abc, VertexT& u,
                    VertexT& v) {
  const bool qa = r < a;
  const bool qb = !qa & (r < ab);
  const bool qc = !qa & !qb & (r < abc);
  const bool qd = !(qa | qb | qc);
  u = (u << 1) | static_cast<VertexT>(qc | qd);
  v = (v << 1) | static_cast<VertexT>(qb | qd);
}

}  // namespace

GraphCoo make_rmat(int scale, double edge_factor, const RmatParams& params,
                   std::uint64_t seed, double noise) {
  MGG_REQUIRE(scale >= 1 && scale < 31, "rmat scale out of range");
  MGG_REQUIRE(edge_factor > 0, "rmat edge factor must be positive");
  const double sum = params.a + params.b + params.c + params.d;
  MGG_REQUIRE(std::abs(sum - 1.0) < 1e-6, "rmat params must sum to 1");

  const VertexT n = VertexT{1} << scale;
  const SizeT m = edge_count(scale, edge_factor, n);

  GraphCoo coo;
  coo.num_vertices = n;
  coo.reserve(m);

  Rng rng(seed);
  for (SizeT e = 0; e < m; ++e) {
    VertexT u = 0, v = 0;
    // GTgraph perturbs the quadrant probabilities at every level with
    // multiplicative noise, then renormalizes, to avoid exact
    // self-similarity.
    for (int level = 0; level < scale; ++level) {
      double a = params.a * (1.0 + noise * (rng.next_double() - 0.5));
      double b = params.b * (1.0 + noise * (rng.next_double() - 0.5));
      double c = params.c * (1.0 + noise * (rng.next_double() - 0.5));
      double d = params.d * (1.0 + noise * (rng.next_double() - 0.5));
      const double norm = a + b + c + d;
      a /= norm;
      b /= norm;
      c /= norm;
      const double r = rng.next_double();
      const double ab = a + b;
      descend(r, a, ab, ab + c, u, v);
    }
    coo.add_edge(u, v);
  }
  return coo;
}

GraphCoo make_uniform_random(VertexT num_vertices, SizeT num_edges,
                             std::uint64_t seed) {
  MGG_REQUIRE(num_vertices > 0, "need at least one vertex");
  GraphCoo coo;
  coo.num_vertices = num_vertices;
  coo.reserve(num_edges);
  Rng rng(seed);
  for (SizeT e = 0; e < num_edges; ++e) {
    coo.add_edge(static_cast<VertexT>(rng.next_below(num_vertices)),
                 static_cast<VertexT>(rng.next_below(num_vertices)));
  }
  return coo;
}

GraphCoo make_road_grid(VertexT width, VertexT height, double drop,
                        std::uint64_t seed) {
  MGG_REQUIRE(width >= 2 && height >= 2, "grid must be at least 2x2");
  GraphCoo coo;
  coo.num_vertices = width * height;
  Rng rng(seed);
  auto id = [width](VertexT x, VertexT y) { return y * width + x; };
  for (VertexT y = 0; y < height; ++y) {
    for (VertexT x = 0; x < width; ++x) {
      // Horizontal and vertical lattice links; each may be dropped to
      // create the irregular connectivity of a real road network.
      if (x + 1 < width && !rng.next_bool(drop)) {
        const auto w = static_cast<ValueT>(rng.next_in_range(1, 64));
        coo.add_edge(id(x, y), id(x + 1, y), w);
      }
      if (y + 1 < height && !rng.next_bool(drop)) {
        const auto w = static_cast<ValueT>(rng.next_in_range(1, 64));
        coo.add_edge(id(x, y), id(x, y + 1), w);
      }
    }
  }
  return coo;
}

GraphCoo make_social(VertexT num_vertices, int edges_per_vertex,
                     std::uint64_t seed) {
  MGG_REQUIRE(num_vertices > static_cast<VertexT>(edges_per_vertex),
              "social graph too small for attachment count");
  MGG_REQUIRE(edges_per_vertex >= 1, "need at least one edge per vertex");
  GraphCoo coo;
  coo.num_vertices = num_vertices;
  coo.reserve(static_cast<std::size_t>(num_vertices) * edges_per_vertex);
  Rng rng(seed);

  // Preferential attachment via the repeated-endpoints trick: sampling
  // a uniform position in the running endpoint list picks vertices
  // proportionally to their current degree.
  std::vector<VertexT> endpoints;
  endpoints.reserve(2ull * num_vertices * edges_per_vertex);

  // Seed clique over the first (edges_per_vertex + 1) vertices.
  const VertexT seed_n = static_cast<VertexT>(edges_per_vertex) + 1;
  for (VertexT u = 0; u < seed_n; ++u) {
    for (VertexT v = u + 1; v < seed_n; ++v) {
      coo.add_edge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }

  for (VertexT u = seed_n; u < num_vertices; ++u) {
    for (int k = 0; k < edges_per_vertex; ++k) {
      VertexT v;
      if (!endpoints.empty() && rng.next_bool(0.85)) {
        v = endpoints[rng.next_below(endpoints.size())];
      } else {
        v = static_cast<VertexT>(rng.next_below(u));  // uniform fallback
      }
      if (v == u) v = static_cast<VertexT>((u + 1) % num_vertices);
      // Randomize orientation so directed uses of the analog don't
      // inherit an arrival-order bias (real social follow edges point
      // both ways); undirected uses symmetrize anyway.
      if (rng.next_bool(0.5)) {
        coo.add_edge(u, v);
      } else {
        coo.add_edge(v, u);
      }
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  return coo;
}

GraphCoo make_web(VertexT num_hosts, VertexT pages_per_host,
                  int links_per_page, double external_fraction,
                  std::uint64_t seed) {
  MGG_REQUIRE(num_hosts >= 1 && pages_per_host >= 2, "web graph too small");
  GraphCoo coo;
  const VertexT n = num_hosts * pages_per_host;
  coo.num_vertices = n;
  coo.reserve(static_cast<std::size_t>(n) * links_per_page);
  Rng rng(seed);

  // Per-host popular-page endpoint pools (copying model): a page links
  // mostly within its host, preferentially to already-popular pages,
  // forming the deep, clustered structure of a crawl.
  std::vector<std::vector<VertexT>> host_endpoints(num_hosts);

  for (VertexT h = 0; h < num_hosts; ++h) {
    const VertexT base = h * pages_per_host;
    // Chain the host's pages first so each host is connected and adds
    // depth (web crawls have diameter in the 20s, unlike social nets).
    for (VertexT p = 1; p < pages_per_host; ++p) {
      coo.add_edge(base + p, base + p - 1);
      host_endpoints[h].push_back(base + p - 1);
    }
    for (VertexT p = 0; p < pages_per_host; ++p) {
      const VertexT u = base + p;
      for (int k = 0; k < links_per_page; ++k) {
        VertexT v;
        if (rng.next_bool(external_fraction)) {
          // External link: jump to a popular page on a random host.
          const VertexT eh = static_cast<VertexT>(rng.next_below(num_hosts));
          const auto& pool = host_endpoints[eh];
          v = pool.empty()
                  ? static_cast<VertexT>(eh * pages_per_host)
                  : pool[rng.next_below(pool.size())];
        } else if (!host_endpoints[h].empty() && rng.next_bool(0.7)) {
          v = host_endpoints[h][rng.next_below(host_endpoints[h].size())];
        } else {
          v = base + static_cast<VertexT>(rng.next_below(pages_per_host));
        }
        coo.add_edge(u, v);
        host_endpoints[h].push_back(v);
      }
    }
  }
  return coo;
}

GraphCoo make_chain(VertexT num_vertices) {
  MGG_REQUIRE(num_vertices >= 2, "chain needs at least two vertices");
  GraphCoo coo;
  coo.num_vertices = num_vertices;
  coo.reserve(num_vertices - 1);
  for (VertexT v = 1; v < num_vertices; ++v) coo.add_edge(v - 1, v);
  return coo;
}

void assign_random_weights(GraphCoo& coo, int lo, int hi, std::uint64_t seed) {
  MGG_REQUIRE(lo <= hi, "weight range is empty");
  Rng rng(seed);
  coo.values.resize(coo.src.size());
  for (auto& w : coo.values)
    w = static_cast<ValueT>(rng.next_in_range(lo, hi));
}

Graph build_undirected(GraphCoo coo) {
  coo.to_undirected_clean();
  return Graph::from_coo(coo);
}

Graph build_directed(GraphCoo coo) {
  coo.to_directed_clean();
  return Graph::from_coo(coo);
}

}  // namespace mgg::graph
