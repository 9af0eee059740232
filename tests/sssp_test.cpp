// Multi-GPU SSSP vs the Dijkstra oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "baselines/cpu_reference.hpp"
#include "config_space.hpp"
#include "primitives/sssp.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

using test::config_for;
using test::first_connected_vertex;
using test::test_machine;

// Distances match Dijkstra bit for bit in each pinned draw of the
// configuration-space differential (tests/config_space.hpp).
class SsspGpuSweep : public ::testing::TestWithParam<int> {};

TEST_P(SsspGpuSweep, RmatMatchesDijkstra) {
  test::space::expect_holds(test::small_weighted_rmat(),
                            {.prim = test::space::Prim::kSssp,
                             .gpus = GetParam()});
}

TEST_P(SsspGpuSweep, RoadGridMatchesDijkstra) {
  test::space::expect_holds(test::small_grid(),
                            {.prim = test::space::Prim::kSssp,
                             .gpus = GetParam(),
                             .sources = {0}});
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, SsspGpuSweep,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(Sssp, OneHopDuplicationMatches) {
  test::space::expect_holds(
      test::small_weighted_rmat(),
      {.prim = test::space::Prim::kSssp,
       .gpus = 4,
       .cfg = {.duplication = part::Duplication::kOneHop}});
}

TEST(Sssp, PredecessorsFormShortestPathTree) {
  const auto g = test::small_weighted_rmat();
  const VertexT src = first_connected_vertex(g);
  auto cfg = config_for(3);
  cfg.mark_predecessors = true;
  auto machine = test_machine(3);
  const auto result = prim::run_sssp(g, src, machine, cfg);
  const auto dist = baselines::cpu_sssp(g, src);
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    if (v == src || std::isinf(dist[v])) continue;
    const VertexT p = result.preds[v];
    ASSERT_NE(p, kInvalidVertex);
    // dist[v] == dist[p] + w(p, v) for some edge p -> v.
    bool found = false;
    const auto [begin, end] = g.edge_range(p);
    for (SizeT e = begin; e < end; ++e) {
      if (g.col_indices[e] == v &&
          std::abs(dist[p] + g.edge_values[e] - dist[v]) < 1e-3f) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "vertex " << v << " pred " << p;
  }
}

TEST(Sssp, ZeroWeightEdgesSupported) {
  graph::GraphCoo coo;
  coo.num_vertices = 4;
  coo.add_edge(0, 1, 0.0f);
  coo.add_edge(1, 2, 5.0f);
  coo.add_edge(0, 2, 7.0f);
  coo.add_edge(2, 3, 0.0f);
  const auto g = graph::build_undirected(std::move(coo));
  auto machine = test_machine(2);
  const auto result = prim::run_sssp(g, 0, machine, config_for(2));
  EXPECT_FLOAT_EQ(result.dist[1], 0.0f);
  EXPECT_FLOAT_EQ(result.dist[2], 5.0f);
  EXPECT_FLOAT_EQ(result.dist[3], 5.0f);
}

TEST(Sssp, IterationCountScalesWithWeightedDiameter) {
  // Bellman-Ford style relaxation takes S ~ b x D/2 iterations; on the
  // chain it's at least the hop count of the shortest-path tree.
  auto coo = graph::make_chain(40);
  graph::assign_random_weights(coo, 1, 8, 3);
  const auto g = graph::build_undirected(std::move(coo));
  auto machine = test_machine(2);
  const auto result = prim::run_sssp(g, 0, machine, config_for(2));
  EXPECT_GE(result.stats.iterations, 39u);
}

}  // namespace
}  // namespace mgg
