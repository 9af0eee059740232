// Multi-GPU connected components vs the union-find oracle.
#include <gtest/gtest.h>

#include "config_space.hpp"
#include "graph/properties.hpp"
#include "primitives/cc.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

using test::config_for;
using test::test_machine;

// Components match the union-find oracle exactly (both label a
// component by its smallest vertex ID) in each pinned draw of the
// configuration-space differential (tests/config_space.hpp).
class CcGpuSweep : public ::testing::TestWithParam<int> {};

TEST_P(CcGpuSweep, RmatMatchesCpu) {
  test::space::expect_holds(
      test::small_rmat(), {.prim = test::space::Prim::kCc, .gpus = GetParam()});
}

TEST_P(CcGpuSweep, GridMatchesCpu) {
  test::space::expect_holds(
      test::small_grid(), {.prim = test::space::Prim::kCc, .gpus = GetParam()});
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, CcGpuSweep,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(Cc, CountsDisjointCliques) {
  graph::GraphCoo coo;
  coo.num_vertices = 12;
  for (VertexT base : {VertexT{0}, VertexT{4}, VertexT{8}}) {
    for (VertexT u = base; u < base + 4; ++u) {
      for (VertexT v = u + 1; v < base + 4; ++v) coo.add_edge(u, v);
    }
  }
  const auto g = graph::build_undirected(std::move(coo));
  auto machine = test_machine(3);
  const auto result = prim::run_cc(g, machine, config_for(3));
  EXPECT_EQ(result.num_components, 3u);
  EXPECT_EQ(result.comp[0], 0u);
  EXPECT_EQ(result.comp[5], 4u);
  EXPECT_EQ(result.comp[11], 8u);
}

TEST(Cc, IsolatedVerticesAreSingletons) {
  graph::GraphCoo coo;
  coo.num_vertices = 6;
  coo.add_edge(0, 1);
  const auto g = graph::build_undirected(std::move(coo));
  auto machine = test_machine(2);
  const auto result = prim::run_cc(g, machine, config_for(2));
  EXPECT_EQ(result.num_components, 5u);  // {0,1} plus 4 singletons
}

TEST(Cc, ConvergesInFewIterations) {
  // Pointer jumping gives logarithmic convergence: even a
  // 1000-vertex chain must finish in far fewer than D iterations.
  const auto g = graph::build_undirected(graph::make_chain(1000));
  auto machine = test_machine(4);
  const auto result = prim::run_cc(g, machine, config_for(4));
  EXPECT_EQ(result.num_components, 1u);
  EXPECT_LE(result.stats.iterations, 30u) << "pointer jumping ineffective";
}

TEST(Cc, MatchesUnionFindComponentCount) {
  const auto g = test::small_rmat();
  auto machine = test_machine(4);
  const auto result = prim::run_cc(g, machine, config_for(4));
  EXPECT_EQ(result.num_components, graph::count_components(g));
}

}  // namespace
}  // namespace mgg
