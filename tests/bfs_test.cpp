// End-to-end tests for the multi-GPU BFS primitive against the CPU
// oracle, across GPU counts, duplication strategies, communication
// strategies, allocation schemes, and partitioners.
#include <gtest/gtest.h>

#include "config_space.hpp"
#include "primitives/bfs.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

using test::config_for;
using test::first_connected_vertex;
using test::test_machine;

// Oracle checks are pinned draws of the configuration-space
// differential (tests/config_space.hpp): depths match cpu_bfs and
// marked predecessors form a BFS tree.
TEST(Bfs, SingleGpuMatchesCpu) {
  test::space::expect_holds(test::small_rmat(), {.gpus = 1});
}

TEST(Bfs, ChainGraphDepths) {
  const auto g = graph::build_undirected(graph::make_chain(64));
  auto machine = test_machine(2);
  auto cfg = config_for(2);
  const auto result = prim::run_bfs(g, 0, machine, cfg);
  for (VertexT v = 0; v < 64; ++v) {
    EXPECT_EQ(result.labels[v], v);
  }
  // A chain from vertex 0 takes one BFS level per vertex.
  EXPECT_GE(result.stats.iterations, 63u);
}

TEST(Bfs, PredecessorsFormValidTree) {
  test::space::expect_holds(test::small_rmat(),
                            {.gpus = 3, .cfg = {.mark_predecessors = true}});
}

struct BfsParam {
  int gpus;
  const char* partitioner;
  part::Duplication dup;
  core::CommStrategy comm;
  vgpu::AllocationScheme scheme;
};

// Names each case by its settings; without this gtest prints the raw
// object bytes, which include the address of `partitioner`.
void PrintTo(const BfsParam& p, std::ostream* os) {
  *os << "gpus" << p.gpus << "/" << p.partitioner << "/"
      << part::to_string(p.dup) << "/" << core::to_string(p.comm) << "/"
      << vgpu::to_string(p.scheme);
}

class BfsSweep : public ::testing::TestWithParam<BfsParam> {};

TEST_P(BfsSweep, MatchesCpu) {
  const BfsParam p = GetParam();
  test::space::expect_holds(test::small_rmat(),
                            {.gpus = p.gpus,
                             .cfg = {.partitioner = p.partitioner,
                                     .duplication = p.dup,
                                     .comm = p.comm,
                                     .scheme = p.scheme}});
}

INSTANTIATE_TEST_SUITE_P(
    GpuCounts, BfsSweep,
    ::testing::Values(
        BfsParam{1, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{2, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{3, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{4, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{6, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion}));

INSTANTIATE_TEST_SUITE_P(
    Strategies, BfsSweep,
    ::testing::Values(
        BfsParam{4, "random", part::Duplication::kOneHop,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{4, "random", part::Duplication::kAll,
                 core::CommStrategy::kBroadcast,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{3, "random", part::Duplication::kOneHop,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kJustEnough}));

INSTANTIATE_TEST_SUITE_P(
    Schemes, BfsSweep,
    ::testing::Values(
        BfsParam{2, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kJustEnough},
        BfsParam{2, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kFixedPrealloc},
        BfsParam{2, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kMax}));

INSTANTIATE_TEST_SUITE_P(
    Partitioners, BfsSweep,
    ::testing::Values(
        BfsParam{4, "biasrandom", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{4, "metis", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{4, "chunk", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion}));

TEST(Bfs, RoadGridHighDiameter) {
  test::space::expect_holds(test::small_grid(), {.gpus = 2, .sources = {0}});
}

TEST(Bfs, DisconnectedComponentsStayUnreached) {
  // Two disjoint cliques; BFS from one must not reach the other.
  graph::GraphCoo coo;
  coo.num_vertices = 8;
  for (VertexT u = 0; u < 4; ++u)
    for (VertexT v = u + 1; v < 4; ++v) coo.add_edge(u, v);
  for (VertexT u = 4; u < 8; ++u)
    for (VertexT v = u + 1; v < 8; ++v) coo.add_edge(u, v);
  const auto g = graph::build_undirected(std::move(coo));
  auto machine = test_machine(2);
  const auto result = prim::run_bfs(g, 0, machine, config_for(2));
  for (VertexT v = 4; v < 8; ++v) {
    EXPECT_EQ(result.labels[v], kInvalidVertex);
  }
}

TEST(Bfs, StatsArepopulated) {
  const auto g = test::small_rmat();
  auto machine = test_machine(4);
  const auto result =
      prim::run_bfs(g, first_connected_vertex(g), machine, config_for(4));
  EXPECT_GT(result.stats.iterations, 0u);
  EXPECT_GT(result.stats.total_edges, 0u);
  EXPECT_GT(result.stats.total_comm_items, 0u);  // 4 GPUs must talk
  EXPECT_GT(result.stats.modeled_total_s(), 0.0);
}

}  // namespace
}  // namespace mgg
