// Tests for the label-propagation extension primitive.
#include <gtest/gtest.h>

#include "config_space.hpp"
#include "primitives/label_propagation.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

using test::config_for;
using test::test_machine;

// Communities match the synchronous CPU oracle in each pinned draw of
// the configuration-space differential (tests/config_space.hpp).
class LpGpuSweep : public ::testing::TestWithParam<int> {};

TEST_P(LpGpuSweep, MatchesSynchronousOracle) {
  test::space::expect_holds(
      test::small_rmat(7, 4),
      {.prim = test::space::Prim::kLp, .gpus = GetParam()});
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, LpGpuSweep,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(LabelPropagation, TwoCliquesTwoCommunities) {
  // Two 5-cliques joined by a single bridge edge: LP must keep them as
  // separate communities.
  graph::GraphCoo coo;
  coo.num_vertices = 10;
  for (VertexT base : {VertexT{0}, VertexT{5}}) {
    for (VertexT u = base; u < base + 5; ++u) {
      for (VertexT v = u + 1; v < base + 5; ++v) coo.add_edge(u, v);
    }
  }
  coo.add_edge(4, 5);  // bridge
  const auto g = graph::build_undirected(std::move(coo));
  auto machine = test_machine(2);
  const auto result =
      prim::run_label_propagation(g, machine, config_for(2));
  // Same label within each clique, different across.
  for (VertexT v = 1; v < 5; ++v) EXPECT_EQ(result.label[v], result.label[0]);
  for (VertexT v = 6; v < 10; ++v) EXPECT_EQ(result.label[v], result.label[5]);
  EXPECT_NE(result.label[0], result.label[5]);
}

TEST(LabelPropagation, IsolatedVerticesKeepOwnLabel) {
  graph::GraphCoo coo;
  coo.num_vertices = 5;
  coo.add_edge(0, 1);
  const auto g = graph::build_undirected(std::move(coo));
  auto machine = test_machine(2);
  const auto result =
      prim::run_label_propagation(g, machine, config_for(2));
  for (VertexT v = 2; v < 5; ++v) EXPECT_EQ(result.label[v], v);
}

TEST(LabelPropagation, IterationCapRespected) {
  const auto g = test::small_rmat(8, 6);
  auto machine = test_machine(2);
  prim::LpOptions options;
  options.max_iterations = 3;
  const auto result =
      prim::run_label_propagation(g, machine, config_for(2), options);
  EXPECT_LE(result.stats.iterations, 3u);
}

TEST(LabelPropagation, CommunityCountReasonable) {
  // A social graph has far fewer communities than vertices.
  const auto g = graph::build_undirected(graph::make_social(2000, 8));
  auto machine = test_machine(3);
  const auto result =
      prim::run_label_propagation(g, machine, config_for(3));
  EXPECT_LT(result.num_communities, g.num_vertices / 2);
  EXPECT_GE(result.num_communities, 1u);
}

}  // namespace
}  // namespace mgg
