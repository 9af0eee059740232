// Direction-optimizing BFS: same answers as plain BFS/CPU, plus checks
// of the §VI-A switching machinery.
#include <gtest/gtest.h>

#include "baselines/cpu_reference.hpp"
#include "config_space.hpp"
#include "primitives/dobfs.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

using test::config_for;
using test::first_connected_vertex;
using test::test_machine;

// Depths match cpu_bfs and marked predecessors form a BFS tree in each
// pinned draw of the configuration-space differential
// (tests/config_space.hpp).
class DobfsGpuSweep : public ::testing::TestWithParam<int> {};

TEST_P(DobfsGpuSweep, RmatMatchesCpu) {
  test::space::expect_holds(test::small_rmat(),
                            {.prim = test::space::Prim::kDobfs,
                             .gpus = GetParam()});
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, DobfsGpuSweep,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(Dobfs, SwitchesToBackwardOnDenseGraph) {
  // A dense power-law graph with a huge second level triggers the
  // forward->backward switch under the default do_a.
  const auto run = test::space::expect_holds(
      test::small_rmat(/*scale=*/9, /*edge_factor=*/16),
      {.prim = test::space::Prim::kDobfs, .gpus = 2});
  EXPECT_GE(run.extra, 1u) << "direction switches";
}

TEST(Dobfs, NeverSwitchesWithZeroDoA) {
  // do_a = infinite threshold keeps it in pure forward mode — results
  // must be identical to BFS.
  prim::DobfsOptions options;
  options.do_a = 1e18;
  const auto g = test::small_rmat();
  auto machine = test_machine(3);
  auto result = prim::run_dobfs(g, first_connected_vertex(g), machine,
                                config_for(3), options);
  EXPECT_EQ(result.direction_switches, 0);
  const auto expected = baselines::cpu_bfs(g, first_connected_vertex(g));
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    EXPECT_EQ(result.labels[v], expected[v]);
  }
}

TEST(Dobfs, ImmediateSwitchStillCorrect) {
  // do_a = 0 forces the switch at the first opportunity; edge-skipping
  // pull traversal must still produce exact BFS depths.
  prim::DobfsOptions options;
  options.do_a = 0.0;
  options.do_b = 0.0;  // never switch back
  const auto g = test::small_rmat();
  const VertexT src = first_connected_vertex(g);
  auto machine = test_machine(2);
  auto result = prim::run_dobfs(g, src, machine, config_for(2), options);
  EXPECT_GE(result.direction_switches, 1);
  const auto expected = baselines::cpu_bfs(g, src);
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    EXPECT_EQ(result.labels[v], expected[v]) << "vertex " << v;
  }
}

TEST(Dobfs, PullSkipsEdges) {
  // On a dense graph, a backward-switched run should charge fewer edge
  // work items than the full forward |E| scan would (edge skipping).
  const auto g = test::small_rmat(9, 16);
  const VertexT src = first_connected_vertex(g);
  auto machine1 = test_machine(1);

  prim::DobfsOptions forward_only;
  forward_only.do_a = 1e18;
  const auto fwd =
      prim::run_dobfs(g, src, machine1, config_for(1), forward_only);

  auto machine2 = test_machine(1);
  const auto dobfs = prim::run_dobfs(g, src, machine2, config_for(1));
  EXPECT_LT(dobfs.stats.total_edges, fwd.stats.total_edges);
}

TEST(Dobfs, PredecessorsValid) {
  test::space::expect_holds(test::small_rmat(),
                            {.prim = test::space::Prim::kDobfs,
                             .gpus = 2,
                             .cfg = {.mark_predecessors = true}});
}

}  // namespace
}  // namespace mgg
