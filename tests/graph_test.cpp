// Unit tests for the graph substrate: COO cleanup, CSR construction,
// transpose, generators, and property measurement.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cpu_reference.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "test_support.hpp"
#include "util/random.hpp"

namespace mgg {
namespace {

using graph::Coo;
using graph::Csr;
using graph::GraphCoo;

TEST(Coo, RemoveSelfLoops) {
  GraphCoo coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 0);
  coo.add_edge(0, 1);
  coo.add_edge(2, 2);
  coo.remove_self_loops();
  EXPECT_EQ(coo.num_edges(), 1u);
  EXPECT_EQ(coo.src[0], 0u);
  EXPECT_EQ(coo.dst[0], 1u);
}

TEST(Coo, RemoveDuplicatesKeepsFirstValue) {
  GraphCoo coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 1, 5.0f);
  coo.add_edge(0, 1, 9.0f);
  coo.add_edge(1, 2, 3.0f);
  coo.remove_duplicates();
  ASSERT_EQ(coo.num_edges(), 2u);
  EXPECT_FLOAT_EQ(coo.values[0], 5.0f);
}

// The dedup's specification: std::stable_sort by (src, dst), then the
// first edge of each run.
template <typename CooT>
CooT reference_dedup(const CooT& in) {
  std::vector<std::size_t> order(in.src.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&in](std::size_t a, std::size_t b) {
                     return std::pair(in.src[a], in.dst[a]) <
                            std::pair(in.src[b], in.dst[b]);
                   });
  CooT out;
  out.num_vertices = in.num_vertices;
  for (const std::size_t e : order) {
    if (!out.src.empty() && out.src.back() == in.src[e] &&
        out.dst.back() == in.dst[e]) {
      continue;
    }
    out.src.push_back(in.src[e]);
    out.dst.push_back(in.dst[e]);
    if (in.has_values()) out.values.push_back(in.values[e]);
  }
  return out;
}

// Seeded random COOs with self loops and runs of >= 3 duplicates
// scattered through the input, each copy carrying its own weight.
template <typename CooT>
void expect_dedup_matches_reference(std::uint64_t seed) {
  using V = typename CooT::VertexType;
  using W = typename CooT::ValueType;
  util::Rng rng(seed);
  for (const V n : {V{1}, V{2}, V{64}, V{5000}}) {
    for (const bool weighted : {false, true}) {
      std::vector<std::pair<V, V>> edges;
      const std::uint64_t distinct = 1 + rng.next_below(2 * n + 16);
      for (std::uint64_t k = 0; k < distinct; ++k) {
        const V u = static_cast<V>(rng.next_below(n));
        const V v = rng.next_bool(0.1) ? u : static_cast<V>(rng.next_below(n));
        const std::uint64_t copies =
            rng.next_bool(0.2) ? 3 + rng.next_below(4) : 1;
        for (std::uint64_t c = 0; c < copies; ++c) edges.emplace_back(u, v);
      }
      for (std::size_t i = edges.size(); i > 1; --i) {
        std::swap(edges[i - 1], edges[rng.next_below(i)]);
      }
      CooT coo;
      coo.num_vertices = n;
      for (const auto& [u, v] : edges) {
        if (weighted) {
          coo.add_edge(u, v, static_cast<W>(coo.src.size()));
        } else {
          coo.add_edge(u, v);
        }
      }
      const CooT want = reference_dedup(coo);
      coo.remove_duplicates();
      const std::string where = "seed " + std::to_string(seed) + ", V " +
                                std::to_string(n) +
                                (weighted ? ", weighted" : ", unweighted");
      EXPECT_EQ(coo.src, want.src) << where;
      EXPECT_EQ(coo.dst, want.dst) << where;
      EXPECT_EQ(coo.values, want.values) << where;
    }
  }
}

TEST(Coo, RemoveDuplicatesMatchesStableSortReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_dedup_matches_reference<graph::Coo32>(seed);
    expect_dedup_matches_reference<graph::Coo64>(seed);
  }
  GraphCoo empty;
  empty.remove_duplicates();
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_FALSE(empty.has_values());
}

TEST(Coo, RemoveDuplicatesRejectsOutOfRangeEndpoint) {
  // The counting sort indexes its counts by endpoint, so an endpoint
  // past num_vertices is rejected before it is used, as validate() and
  // from_coo reject it.
  for (const bool bad_src : {true, false}) {
    GraphCoo coo;
    coo.num_vertices = 3;
    coo.add_edge(0, 1);
    if (bad_src) {
      coo.add_edge(3, 0);
    } else {
      coo.add_edge(0, 7);
    }
    try {
      coo.remove_duplicates();
      ADD_FAILURE() << "out-of-range " << (bad_src ? "src" : "dst")
                    << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::kInvalidArgument) << e.what();
      EXPECT_NE(std::string(e.what()).find("edge endpoint out of range"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Coo, SymmetrizePreservesWeights) {
  GraphCoo coo;
  coo.num_vertices = 2;
  coo.add_edge(0, 1, 7.0f);
  coo.symmetrize();
  ASSERT_EQ(coo.num_edges(), 2u);
  EXPECT_EQ(coo.src[1], 1u);
  EXPECT_EQ(coo.dst[1], 0u);
  EXPECT_FLOAT_EQ(coo.values[1], 7.0f);
}

TEST(Coo, ValidateCatchesOutOfRange) {
  GraphCoo coo;
  coo.num_vertices = 2;
  coo.add_edge(0, 5);
  EXPECT_THROW(coo.validate(), Error);
}

TEST(Csr, FromCooBasicStructure) {
  GraphCoo coo;
  coo.num_vertices = 4;
  coo.add_edge(1, 0);
  coo.add_edge(0, 2);
  coo.add_edge(0, 1);
  coo.add_edge(3, 2);
  const auto g = graph::Graph::from_coo(coo);
  EXPECT_EQ(g.num_vertices, 4u);
  EXPECT_EQ(g.num_edges, 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
  // Neighbor lists are sorted.
  const auto n0 = g.neighbors(0);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
}

TEST(Csr, FromCooOrdersDuplicateColumnsByValue) {
  // Repeated columns reach from_coo in descending weight order: in an
  // unsorted list (vertex 0) and in one whose columns alone are already
  // sorted (vertex 1). Both come out in (column, value) order.
  GraphCoo coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 2, 5.0f);
  coo.add_edge(0, 1, 9.0f);
  coo.add_edge(0, 1, 7.0f);
  coo.add_edge(0, 1, 4.0f);
  coo.add_edge(1, 0, 3.0f);
  coo.add_edge(1, 0, 2.0f);
  coo.add_edge(1, 2, 1.0f);
  coo.add_edge(2, 1, 6.0f);
  const auto g = graph::Graph::from_coo(coo);
  EXPECT_EQ(g.row_offsets, (std::vector<SizeT>{0, 4, 7, 8}));
  EXPECT_EQ(g.col_indices, (std::vector<VertexT>{1, 1, 1, 2, 0, 0, 2, 1}));
  EXPECT_EQ(g.edge_values,
            (std::vector<ValueT>{4, 7, 9, 5, 2, 3, 1, 6}));

  // A sorted input comes out unchanged, and so does the double
  // transpose of the multigraph.
  GraphCoo sorted;
  sorted.num_vertices = g.num_vertices;
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    for (SizeT e = g.row_offsets[v]; e < g.row_offsets[v + 1]; ++e) {
      sorted.add_edge(v, g.col_indices[e], g.edge_values[e]);
    }
  }
  EXPECT_TRUE(graph::Graph::from_coo(sorted) == g);
  EXPECT_TRUE(g.transpose().transpose() == g);

  // Unweighted repeated columns are sorted too.
  GraphCoo plain;
  plain.num_vertices = 2;
  plain.add_edge(0, 1);
  plain.add_edge(0, 0);
  plain.add_edge(0, 1);
  const auto p = graph::Graph::from_coo(plain);
  EXPECT_EQ(p.col_indices, (std::vector<VertexT>{0, 1, 1}));
}

TEST(Csr, TransposeReversesEdges) {
  GraphCoo coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 1, 2.0f);
  coo.add_edge(0, 2, 3.0f);
  const auto g = graph::Graph::from_coo(coo);
  const auto t = g.transpose();
  EXPECT_EQ(t.degree(0), 0u);
  EXPECT_EQ(t.degree(1), 1u);
  EXPECT_EQ(t.neighbors(1)[0], 0u);
  EXPECT_FLOAT_EQ(t.neighbor_values(2)[0], 3.0f);
  // Double transpose is the identity.
  EXPECT_TRUE(t.transpose() == g);
}

TEST(Csr, SixtyFourBitInstantiation) {
  graph::Coo64 coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 1);
  coo.add_edge(1, 2);
  const auto g = graph::Csr64::from_coo(coo);
  EXPECT_EQ(g.num_vertices, 3u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(sizeof(g.col_indices[0]), 8u);
}

TEST(Csr, SixtyFourBitBfsEndToEnd) {
  // Build a 64-bit ID graph structurally identical to a 32-bit one and
  // check the generic BFS agrees (Table V's ID-width support).
  graph::Coo64 coo64;
  graph::GraphCoo coo32;
  coo64.num_vertices = 64;
  coo32.num_vertices = 64;
  util::Rng rng(5);
  for (int e = 0; e < 300; ++e) {
    const auto u = rng.next_below(64);
    const auto v = rng.next_below(64);
    coo64.add_edge(u, v);
    coo32.add_edge(static_cast<VertexT>(u), static_cast<VertexT>(v));
  }
  coo64.to_undirected_clean();
  coo32.to_undirected_clean();
  const auto g64 = graph::Csr64::from_coo(coo64);
  const auto g32 = graph::Graph::from_coo(coo32);
  const auto d64 = baselines::cpu_bfs_generic(g64, std::uint64_t{0});
  const auto d32 = baselines::cpu_bfs_generic(g32, VertexT{0});
  ASSERT_EQ(d64.size(), d32.size());
  for (std::size_t v = 0; v < d64.size(); ++v) {
    if (d32[v] == kInvalidVertex) {
      EXPECT_EQ(d64[v], invalid_vertex_v<std::uint64_t>);
    } else {
      EXPECT_EQ(d64[v], d32[v]);
    }
  }
}

TEST(Csr, StorageBytesAccountsAllArrays) {
  const auto g = test::small_weighted_rmat(6, 4);
  const std::size_t expected = (g.num_vertices + 1) * sizeof(SizeT) +
                               g.num_edges * sizeof(VertexT) +
                               g.num_edges * sizeof(ValueT);
  EXPECT_EQ(g.storage_bytes(), expected);
}

TEST(Generators, RmatDeterministicAndSized) {
  const auto a = graph::make_rmat(8, 8, graph::RmatParams::gtgraph(), 5);
  const auto b = graph::make_rmat(8, 8, graph::RmatParams::gtgraph(), 5);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.num_vertices, 256u);
  EXPECT_EQ(a.num_edges(), 2048u);
  const auto c = graph::make_rmat(8, 8, graph::RmatParams::gtgraph(), 6);
  EXPECT_NE(a.src, c.src);
}

TEST(Generators, RmatIsSkewed) {
  // R-MAT with GTgraph parameters concentrates edges on low vertex IDs.
  const auto g = test::small_rmat(10, 8);
  SizeT low_half = 0;
  for (VertexT v = 0; v < g.num_vertices / 2; ++v) low_half += g.degree(v);
  EXPECT_GT(low_half, g.num_edges / 2);
  // And the max degree is far above the average (power law).
  EXPECT_GT(g.max_degree(), 10 * g.average_degree());
}

// An edge count factor * 2^scale past SizeT is rejected as an invalid
// argument naming scale and factor; converting it would be undefined
// behaviour.
void expect_edge_count_rejected(int scale, double factor,
                                const std::string& factor_text) {
  try {
    graph::make_rmat(scale, factor);
    ADD_FAILURE() << "scale " << scale << ", factor " << factor_text
                  << " was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(e.status(), Status::kInvalidArgument) << what;
    EXPECT_NE(what.find("scale " + std::to_string(scale)), std::string::npos)
        << what;
    EXPECT_NE(what.find("factor " + factor_text), std::string::npos) << what;
  }
}

TEST(Generators, RmatRejectsBadParams) {
  EXPECT_THROW(graph::make_rmat(0, 8), Error);
  EXPECT_THROW(
      graph::make_rmat(8, 8, graph::RmatParams{0.5, 0.5, 0.5, 0.5}),
      Error);
  expect_edge_count_rejected(30, 64, "64");
  expect_edge_count_rejected(4, 268435456.5, "268435456.5");
}

// The quadrant choice as the else-if chain it replaced, for make_rmat's
// branch-free descent to be checked against.
void reference_quadrant(double r, double a, double b, double c, VertexT& u,
                        VertexT& v) {
  u <<= 1;
  v <<= 1;
  if (r < a) {
  } else if (r < a + b) {
    v |= 1;
  } else if (r < a + b + c) {
    u |= 1;
  } else {
    u |= 1;
    v |= 1;
  }
}

GraphCoo reference_rmat(int scale, double edge_factor,
                        const graph::RmatParams& params, std::uint64_t seed,
                        double noise) {
  const VertexT n = VertexT{1} << scale;
  const SizeT m = static_cast<SizeT>(edge_factor * static_cast<double>(n));
  GraphCoo coo;
  coo.num_vertices = n;
  util::Rng rng(seed);
  for (SizeT e = 0; e < m; ++e) {
    VertexT u = 0, v = 0;
    for (int level = 0; level < scale; ++level) {
      double a = params.a * (1.0 + noise * (rng.next_double() - 0.5));
      double b = params.b * (1.0 + noise * (rng.next_double() - 0.5));
      double c = params.c * (1.0 + noise * (rng.next_double() - 0.5));
      double d = params.d * (1.0 + noise * (rng.next_double() - 0.5));
      const double norm = a + b + c + d;
      a /= norm;
      b /= norm;
      c /= norm;
      reference_quadrant(rng.next_double(), a, b, c, u, v);
    }
    coo.add_edge(u, v);
  }
  return coo;
}

const graph::RmatParams kDescentParams[] = {
    graph::RmatParams::gtgraph(), graph::RmatParams::merrill(),
    {0.25, 0.25, 0.25, 0.25}, {0.05, 0.05, 0.1, 0.8}};

TEST(Generators, RmatMatchesReferenceDescent) {
  // noise 3.0 perturbs probabilities below zero, where a descent that
  // does not mirror the chain term by term picks other quadrants.
  for (const int scale : {1, 6, 11}) {
    for (const auto& params : kDescentParams) {
      for (const double noise : {0.0, 0.1, 3.0}) {
        for (const std::uint64_t seed : {1ULL, 42ULL, 987654321ULL}) {
          const auto got = graph::make_rmat(scale, 4, params, seed, noise);
          const auto want = reference_rmat(scale, 4, params, seed, noise);
          EXPECT_EQ(got.num_vertices, want.num_vertices);
          EXPECT_EQ(got.src, want.src) << "scale " << scale << ", a "
                                       << params.a << ", noise " << noise
                                       << ", seed " << seed;
          EXPECT_EQ(got.dst, want.dst) << "scale " << scale << ", a "
                                       << params.a << ", noise " << noise
                                       << ", seed " << seed;
        }
      }
    }
  }
}

TEST(Generators, ChainShape) {
  const auto coo = graph::make_chain(10);
  EXPECT_EQ(coo.num_edges(), 9u);
  const auto g = graph::build_undirected(coo);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(5), 2u);
  EXPECT_EQ(graph::bfs_eccentricity(g, 0), 9u);
}

TEST(Generators, RoadGridHighDiameterLowDegree) {
  const auto g = test::small_grid(20, 20);
  EXPECT_LE(g.max_degree(), 4u);
  EXPECT_GE(graph::estimate_diameter(g, 8), 20.0);
  EXPECT_TRUE(g.has_values());
}

TEST(Generators, SocialPowerLawLowDiameter) {
  const auto g = graph::build_undirected(graph::make_social(4000, 8));
  EXPECT_GT(g.max_degree(), 10 * g.average_degree());
  EXPECT_LE(graph::estimate_diameter(g, 8), 8.0);
  EXPECT_EQ(graph::count_components(g), 1u);
}

TEST(Generators, WebDeeperThanSocial) {
  const auto social =
      graph::build_undirected(graph::make_social(8000, 10));
  const auto web =
      graph::build_undirected(graph::make_web(120, 64, 10));
  EXPECT_GT(graph::estimate_diameter(web, 8),
            graph::estimate_diameter(social, 8));
}

TEST(Generators, WeightsInRange) {
  auto coo = graph::make_chain(100);
  graph::assign_random_weights(coo, 0, 64, 3);
  for (const ValueT w : coo.values) {
    EXPECT_GE(w, 0.0f);
    EXPECT_LE(w, 64.0f);
  }
}

TEST(Properties, DegreeStats) {
  GraphCoo coo;
  coo.num_vertices = 4;
  coo.add_edge(0, 1);
  coo.add_edge(0, 2);
  coo.add_edge(0, 3);
  const auto g = graph::Graph::from_coo(coo);
  const auto stats = graph::degree_stats(g);
  EXPECT_EQ(stats.max_degree, 3u);
  EXPECT_EQ(stats.min_degree, 0u);
  EXPECT_EQ(stats.isolated_vertices, 3u);  // 1,2,3 have no out-edges
}

TEST(Properties, SymmetryDetection) {
  const auto undirected = test::small_rmat(6, 4);
  EXPECT_TRUE(graph::is_symmetric(undirected));
  GraphCoo coo;
  coo.num_vertices = 2;
  coo.add_edge(0, 1);
  EXPECT_FALSE(graph::is_symmetric(graph::Graph::from_coo(coo)));
}

TEST(Properties, ComponentCount) {
  GraphCoo coo;
  coo.num_vertices = 5;
  coo.add_edge(0, 1);
  coo.add_edge(2, 3);
  const auto g = graph::build_undirected(std::move(coo));
  EXPECT_EQ(graph::count_components(g), 3u);  // {0,1} {2,3} {4}
}

}  // namespace
}  // namespace mgg
