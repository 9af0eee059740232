// Multi-GPU PageRank vs the CPU power-iteration oracle.
#include <gtest/gtest.h>

#include <numeric>

#include "config_space.hpp"
#include "primitives/pagerank.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

using test::config_for;
using test::test_machine;

// Ranks stay within 5% of the CPU power iteration in each pinned draw
// of the configuration-space differential (tests/config_space.hpp).
class PrGpuSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrGpuSweep, RmatMatchesCpu) {
  test::space::expect_holds(
      test::small_rmat(), {.prim = test::space::Prim::kPr, .gpus = GetParam()});
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, PrGpuSweep,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(Pagerank, OneHopDuplicationMatches) {
  test::space::expect_holds(
      test::small_rmat(),
      {.prim = test::space::Prim::kPr,
       .gpus = 4,
       .cfg = {.duplication = part::Duplication::kOneHop}});
}

TEST(Pagerank, RanksSumNearOne) {
  // With no dangling-mass redistribution, the total rank stays close
  // to 1 for graphs without isolated vertices.
  const auto g = test::small_rmat();
  auto machine = test_machine(3);
  const auto result = prim::run_pagerank(g, machine, config_for(3));
  double total = 0;
  for (const ValueT r : result.rank) total += r;
  EXPECT_NEAR(total, 1.0, 0.15);
}

TEST(Pagerank, StarCenterDominates) {
  graph::GraphCoo coo;
  coo.num_vertices = 16;
  for (VertexT v = 1; v < 16; ++v) coo.add_edge(0, v);
  const auto g = graph::build_undirected(std::move(coo));
  auto machine = test_machine(2);
  const auto result = prim::run_pagerank(g, machine, config_for(2));
  for (VertexT v = 1; v < 16; ++v) {
    EXPECT_GT(result.rank[0], result.rank[v]);
  }
}

TEST(Pagerank, RespectsMaxIterations) {
  prim::PagerankOptions options;
  options.threshold = 0;  // never converges by threshold
  options.max_iterations = 5;
  const auto g = test::small_rmat();
  auto machine = test_machine(2);
  const auto result = prim::run_pagerank(g, machine, config_for(2), options);
  EXPECT_LE(result.stats.iterations, 6u);
}

TEST(Pagerank, TighterThresholdTakesMoreIterations) {
  const auto g = test::small_rmat();
  prim::PagerankOptions loose;
  loose.threshold = 0.05f;
  prim::PagerankOptions tight;
  tight.threshold = 0.0005f;
  auto m1 = test_machine(2);
  auto m2 = test_machine(2);
  const auto a = prim::run_pagerank(g, m1, config_for(2), loose);
  const auto b = prim::run_pagerank(g, m2, config_for(2), tight);
  EXPECT_LT(a.stats.iterations, b.stats.iterations);
}

}  // namespace
}  // namespace mgg
