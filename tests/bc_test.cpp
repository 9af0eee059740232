// Multi-GPU betweenness centrality vs the Brandes oracle.
#include <gtest/gtest.h>

#include "baselines/cpu_reference.hpp"
#include "config_space.hpp"
#include "primitives/bc.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

using test::config_for;
using test::first_connected_vertex;
using test::test_machine;

// Centralities match the Brandes oracle in each pinned draw of the
// configuration-space differential (tests/config_space.hpp).
class BcGpuSweep : public ::testing::TestWithParam<int> {};

TEST_P(BcGpuSweep, SingleSourceRmat) {
  test::space::expect_holds(
      test::small_rmat(7, 4),
      {.prim = test::space::Prim::kBc, .gpus = GetParam()});
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, BcGpuSweep,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(Bc, MultiSourceAccumulation) {
  const auto g = test::small_rmat(6, 4);
  std::vector<VertexT> sources;
  for (VertexT v = 0; v < g.num_vertices && sources.size() < 8; ++v) {
    if (g.degree(v) > 0) sources.push_back(v);
  }
  test::space::expect_holds(
      g, {.prim = test::space::Prim::kBc, .gpus = 3, .sources = sources});
}

TEST(Bc, PathGraphCentrality) {
  // On a path a-b-c-d-e with all sources, the exact BC of the middle
  // vertex c is known: it lies on paths {a,b}x{d,e} plus... easiest to
  // just compare with the all-sources oracle.
  const auto g = graph::build_undirected(graph::make_chain(5));
  auto machine = test_machine(2);
  const auto result = prim::run_bc(g, machine, config_for(2));
  const auto expected = baselines::cpu_bc_all_sources(g);
  for (VertexT v = 0; v < 5; ++v) {
    EXPECT_NEAR(result.bc[v], expected[v], 1e-4) << "vertex " << v;
  }
  // Middle of a 5-path has the highest centrality.
  EXPECT_GT(result.bc[2], result.bc[1]);
  EXPECT_GT(result.bc[1], result.bc[0]);
}

TEST(Bc, StarCenterTakesAllPaths) {
  graph::GraphCoo coo;
  coo.num_vertices = 8;
  for (VertexT v = 1; v < 8; ++v) coo.add_edge(0, v);
  const auto g = graph::build_undirected(std::move(coo));
  auto machine = test_machine(2);
  const auto result = prim::run_bc(g, machine, config_for(2));
  // Center: every pair of the 7 leaves routes through it: C(7,2) = 21.
  EXPECT_NEAR(result.bc[0], 21.0, 1e-4);
  for (VertexT v = 1; v < 8; ++v) {
    EXPECT_NEAR(result.bc[v], 0.0, 1e-6);
  }
}

TEST(Bc, GridAllPairsSmall) {
  const auto g = test::small_grid(5, 5);
  std::vector<VertexT> sources(g.num_vertices);
  for (VertexT v = 0; v < g.num_vertices; ++v) sources[v] = v;
  test::space::expect_holds(
      g, {.prim = test::space::Prim::kBc, .gpus = 4, .sources = sources});
}

TEST(Bc, IsolatedSourceIsNoop) {
  graph::GraphCoo coo;
  coo.num_vertices = 5;
  coo.add_edge(1, 2);
  coo.add_edge(2, 3);
  const auto g = graph::build_undirected(std::move(coo));
  auto machine = test_machine(2);
  // Vertex 0 is isolated; BC from it contributes nothing and must not
  // hang or crash.
  const auto result = prim::run_bc(g, machine, config_for(2), {0});
  for (VertexT v = 0; v < 5; ++v) {
    EXPECT_NEAR(result.bc[v], 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace mgg
