// Tests for the comparison baselines: they must be *correct* (same
// answers as the oracle) and their cost models must show the expected
// qualitative behavior.
#include <gtest/gtest.h>

#include "baselines/bfs_2d.hpp"
#include "baselines/cpu_reference.hpp"
#include "baselines/hardwired_bfs.hpp"
#include "baselines/out_of_core.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

using test::first_connected_vertex;

TEST(HardwiredBfs, MatchesOracleAcrossGpuCounts) {
  const auto g = test::small_rmat();
  const VertexT src = first_connected_vertex(g);
  const auto expected = baselines::cpu_bfs(g, src);
  for (const int gpus : {1, 2, 4}) {
    auto machine = test::test_machine(gpus);
    const auto result = baselines::hardwired_bfs(g, src, machine, gpus);
    EXPECT_EQ(result.labels, expected) << gpus << " GPUs";
    EXPECT_GT(result.stats.iterations, 0u);
  }
}

TEST(HardwiredBfs, RemoteAccessesGrowWithGpus) {
  const auto g = test::small_rmat();
  const VertexT src = first_connected_vertex(g);
  auto m1 = test::test_machine(1);
  auto m4 = test::test_machine(4);
  const auto one = baselines::hardwired_bfs(g, src, m1, 1);
  const auto four = baselines::hardwired_bfs(g, src, m4, 4);
  EXPECT_EQ(one.stats.total_comm_items, 0u);
  EXPECT_GT(four.stats.total_comm_items, 0u);
}

TEST(Bfs2d, MatchesOracleOnGrids) {
  const auto g = test::small_rmat();
  const VertexT src = first_connected_vertex(g);
  const auto expected = baselines::cpu_bfs(g, src);
  for (const auto& [rows, cols] : {std::pair{1, 1}, {1, 2}, {2, 2}}) {
    auto machine = test::test_machine(rows * cols);
    const auto result = baselines::bfs_2d(g, src, machine, rows, cols);
    EXPECT_EQ(result.labels, expected) << rows << "x" << cols;
  }
}

TEST(Bfs2d, ContractTrafficIsEdgeScale) {
  // The 2D scheme ships the raw edge frontier: communicated items must
  // be on the order of |E|, not |V| (the paper's §II-A critique).
  const auto g = test::small_rmat();
  auto machine = test::test_machine(4);
  const auto result =
      baselines::bfs_2d(g, first_connected_vertex(g), machine, 2, 2);
  EXPECT_GT(result.stats.total_comm_items, g.num_vertices);
}

TEST(OutOfCore, BfsMatchesOracle) {
  const auto g = test::small_rmat();
  const VertexT src = first_connected_vertex(g);
  auto machine = test::test_machine(1);
  const auto result = baselines::out_of_core_gas(g, "bfs", src, machine);
  EXPECT_EQ(result.labels, baselines::cpu_bfs(g, src));
}

TEST(OutOfCore, SsspMatchesOracle) {
  const auto g = test::small_weighted_rmat();
  const VertexT src = first_connected_vertex(g);
  auto machine = test::test_machine(1);
  const auto result = baselines::out_of_core_gas(g, "sssp", src, machine);
  const auto expected = baselines::cpu_sssp(g, src);
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(result.values[v]));
    } else {
      EXPECT_FLOAT_EQ(result.values[v], expected[v]);
    }
  }
}

TEST(OutOfCore, CcMatchesOracle) {
  const auto g = test::small_rmat();
  auto machine = test::test_machine(1);
  const auto result = baselines::out_of_core_gas(g, "cc", 0, machine);
  EXPECT_EQ(result.labels, baselines::cpu_cc(g));
}

TEST(OutOfCore, PrMatchesOracle) {
  const auto g = test::small_rmat();
  auto machine = test::test_machine(1);
  const auto result =
      baselines::out_of_core_gas(g, "pr", 0, machine, /*iterations=*/15);
  const auto expected = baselines::cpu_pagerank(g, 0.85f, 0.0f, 15);
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    EXPECT_NEAR(result.values[v], expected[v], 0.02f * expected[v] + 1e-6f);
  }
}

TEST(OutOfCore, StreamingCostDominates) {
  // The defining property: the modeled PCIe streaming cost exceeds the
  // modeled compute cost (the paper's "PCIe bus a performance
  // bottleneck" critique of GraphReduce).
  const auto g = test::small_rmat(9, 16);
  auto machine = test::test_machine(1);
  const auto result = baselines::out_of_core_gas(g, "pr", 0, machine, 10);
  EXPECT_GT(result.stats.modeled_comm_s, result.stats.modeled_compute_s);
}

TEST(OutOfCore, UnknownAlgoThrows) {
  const auto g = test::small_rmat(6, 4);
  auto machine = test::test_machine(1);
  EXPECT_THROW(baselines::out_of_core_gas(g, "bc", 0, machine), Error);
}

TEST(CpuReference, BcAllSourcesPathGraph) {
  // Exact values on a 4-path a-b-c-d: b and c each lie on paths
  // {a->c, a->d, b->d} etc. Known: bc(b) = bc(c) = 2.
  const auto g = graph::build_undirected(graph::make_chain(4));
  const auto bc = baselines::cpu_bc_all_sources(g);
  EXPECT_NEAR(bc[0], 0.0, 1e-9);
  EXPECT_NEAR(bc[1], 2.0, 1e-9);
  EXPECT_NEAR(bc[2], 2.0, 1e-9);
  EXPECT_NEAR(bc[3], 0.0, 1e-9);
}

TEST(CpuReference, DijkstraHandlesUnreachable) {
  graph::GraphCoo coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 1, 2.0f);
  const auto g = graph::build_undirected(std::move(coo));
  const auto dist = baselines::cpu_sssp(g, 0);
  EXPECT_FLOAT_EQ(dist[1], 2.0f);
  EXPECT_TRUE(std::isinf(dist[2]));
}

}  // namespace
}  // namespace mgg
