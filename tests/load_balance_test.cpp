// Tests for the advance load-balancing policies.
#include <gtest/gtest.h>

#include "config_space.hpp"
#include "core/load_balance.hpp"
#include "primitives/bfs.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

using core::LoadBalance;
using core::WorkChunk;

graph::Graph skewed_graph() {
  // One hub with 1000 edges plus 100 degree-1 vertices.
  graph::GraphCoo coo;
  coo.num_vertices = 1102;
  for (VertexT v = 1; v <= 1000; ++v) coo.add_edge(0, v);
  for (VertexT v = 0; v < 100; ++v) coo.add_edge(1001 + v, v + 1);
  return graph::Graph::from_coo(coo);
}

TEST(LoadBalance, DegreeScanMatchesDegrees) {
  const auto g = skewed_graph();
  const VertexT frontier[] = {0, 1001, 1002};
  const auto scan = core::degree_scan(g, frontier);
  ASSERT_EQ(scan.size(), 4u);
  EXPECT_EQ(scan[0], 0u);
  EXPECT_EQ(scan[1], 1000u);
  EXPECT_EQ(scan[2], 1001u);
  EXPECT_EQ(scan[3], 1002u);
}

TEST(LoadBalance, ChunksPartitionAllWork) {
  const auto g = skewed_graph();
  std::vector<VertexT> frontier{0};
  for (VertexT v = 1001; v < 1101; ++v) frontier.push_back(v);
  const auto scan = core::degree_scan(g, frontier);

  for (const auto policy :
       {LoadBalance::kThreadPerVertex, LoadBalance::kEdgeBalanced}) {
    for (const int workers : {1, 3, 8, 64}) {
      const auto chunks = core::partition_work(scan, workers, policy);
      ASSERT_EQ(chunks.size(), static_cast<std::size_t>(workers));
      std::uint64_t total = 0;
      for (const auto& c : chunks) total += c.total_edges;
      EXPECT_EQ(total, scan.back())
          << core::to_string(policy) << " " << workers;
    }
  }
}

TEST(LoadBalance, EdgeBalancedSplitsTheHub) {
  const auto g = skewed_graph();
  std::vector<VertexT> frontier{0};
  for (VertexT v = 1001; v < 1101; ++v) frontier.push_back(v);
  const auto scan = core::degree_scan(g, frontier);

  const auto tpv =
      core::partition_work(scan, 8, LoadBalance::kThreadPerVertex);
  const auto balanced =
      core::partition_work(scan, 8, LoadBalance::kEdgeBalanced);

  // TPV: worker 0 owns the hub's 1000 edges plus a few leaves -> ~7x
  // the mean. Edge-balanced: every chunk within rounding of the mean.
  EXPECT_GT(core::chunk_imbalance(tpv), 5.0);
  EXPECT_LT(core::chunk_imbalance(balanced), 1.1);
}

TEST(LoadBalance, BalancedChunksCarrySubVertexOffsets) {
  const auto g = skewed_graph();
  const VertexT frontier[] = {0};  // one hub, 1000 edges
  const auto scan = core::degree_scan(g, frontier);
  const auto chunks =
      core::partition_work(scan, 4, LoadBalance::kEdgeBalanced);
  // All four workers share the single frontier slot at different edge
  // offsets — the merge-path property.
  EXPECT_EQ(chunks[1].first_slot, 0u);
  EXPECT_EQ(chunks[1].first_edge_offset, 250u);
  EXPECT_EQ(chunks[3].first_edge_offset, 750u);
}

TEST(LoadBalance, EmptyFrontier) {
  const std::vector<SizeT> scan{0};
  const auto chunks =
      core::partition_work(scan, 4, LoadBalance::kEdgeBalanced);
  for (const auto& c : chunks) EXPECT_EQ(c.total_edges, 0u);
  EXPECT_DOUBLE_EQ(core::chunk_imbalance(chunks), 1.0);
}

TEST(LoadBalance, PolicyDoesNotChangeResults) {
  // Rerun edge-balanced: results and every counter (tests/config_space.hpp).
  test::space::expect_holds(
      test::small_rmat(),
      {.gpus = 3, .cfg = {.load_balance = LoadBalance::kThreadPerVertex}});
}

TEST(LoadBalance, SkewedPolicyCostsMoreOnPowerLaw) {
  // Same work, same results, but thread-per-vertex models a slower
  // kernel on skewed frontiers — the §II-A load-imbalance critique.
  const auto g = test::small_rmat(9, 16);
  const VertexT src = test::first_connected_vertex(g);
  auto cfg_balanced = test::config_for(2);
  auto cfg_tpv = test::config_for(2);
  cfg_tpv.load_balance = LoadBalance::kThreadPerVertex;
  auto m1 = test::test_machine(2);
  auto m2 = test::test_machine(2);
  const auto a = prim::run_bfs(g, src, m1, cfg_balanced);
  const auto b = prim::run_bfs(g, src, m2, cfg_tpv);
  EXPECT_EQ(a.stats.total_edges, b.stats.total_edges);  // same raw work
  EXPECT_GT(b.stats.modeled_compute_s, a.stats.modeled_compute_s * 1.5);
}

}  // namespace
}  // namespace mgg
