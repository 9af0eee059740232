// Property-style sweeps: for randomized graphs across families and
// seeds, every multi-GPU primitive must agree with its CPU oracle
// under every configuration dimension. Each case is a pinned draw of
// the configuration-space differential (tests/config_space.hpp);
// tests/config_space_test.cpp samples the rest of the knob product.
#include <gtest/gtest.h>

#include "config_space.hpp"
#include "primitives/bfs.hpp"
#include "test_support.hpp"
#include "vgpu/cost.hpp"

namespace mgg {
namespace {

using test::space::Prim;

struct Scenario {
  const char* family;  // "rmat", "social", "web", "grid", "uniform"
  std::uint64_t seed;
  int gpus;
};

void PrintTo(const Scenario& s, std::ostream* os) {
  *os << s.family << "/seed" << s.seed << "/gpus" << s.gpus;
}

class PrimitiveSweep : public ::testing::TestWithParam<Scenario> {
 protected:
  void expect_holds(Prim prim, bool weighted = false) {
    const Scenario s = GetParam();
    test::space::expect_holds(
        test::space::family_graph(s.family, s.seed, weighted),
        {.prim = prim, .gpus = s.gpus});
  }
};

TEST_P(PrimitiveSweep, BfsMatchesOracle) { expect_holds(Prim::kBfs); }
TEST_P(PrimitiveSweep, DobfsMatchesOracle) { expect_holds(Prim::kDobfs); }
TEST_P(PrimitiveSweep, SsspMatchesOracle) { expect_holds(Prim::kSssp, true); }
TEST_P(PrimitiveSweep, CcMatchesOracle) { expect_holds(Prim::kCc); }
TEST_P(PrimitiveSweep, PagerankMatchesOracle) { expect_holds(Prim::kPr); }
TEST_P(PrimitiveSweep, BcMatchesOracle) { expect_holds(Prim::kBc); }

INSTANTIATE_TEST_SUITE_P(
    Families, PrimitiveSweep,
    ::testing::Values(Scenario{"rmat", 11, 2}, Scenario{"rmat", 12, 5},
                      Scenario{"social", 21, 3}, Scenario{"social", 22, 4},
                      Scenario{"web", 31, 2}, Scenario{"web", 32, 6},
                      Scenario{"grid", 41, 3}, Scenario{"grid", 42, 2},
                      Scenario{"uniform", 51, 4},
                      Scenario{"uniform", 52, 3}));

// --- Allocation scheme x primitive interactions ------------------------

class SchemeSweep
    : public ::testing::TestWithParam<vgpu::AllocationScheme> {};

TEST_P(SchemeSweep, SsspUnaffectedByScheme) {
  test::space::expect_holds(
      test::small_weighted_rmat(),
      {.prim = Prim::kSssp, .gpus = 3, .cfg = {.scheme = GetParam()}});
}

TEST_P(SchemeSweep, PagerankUnaffectedByScheme) {
  test::space::expect_holds(
      test::small_rmat(7, 4),
      {.prim = Prim::kPr, .gpus = 2, .cfg = {.scheme = GetParam()}});
}

TEST_P(SchemeSweep, DobfsUnaffectedByScheme) {
  test::space::expect_holds(
      test::small_rmat(7, 6),
      {.prim = Prim::kDobfs, .gpus = 3, .cfg = {.scheme = GetParam()}});
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeSweep,
    ::testing::Values(vgpu::AllocationScheme::kJustEnough,
                      vgpu::AllocationScheme::kFixedPrealloc,
                      vgpu::AllocationScheme::kMax,
                      vgpu::AllocationScheme::kPreallocFusion));

// --- Cross-configuration invariants -----------------------------------

TEST(Invariants, GpuCountNeverChangesResults) {
  // Every GPU count matches the oracle, so BFS labels never depend on
  // the partitioning.
  const auto g = test::small_rmat(8, 6, 99);
  for (const int gpus : {1, 2, 3, 5, 6}) {
    test::space::expect_holds(g, {.gpus = gpus});
  }
}

TEST(Invariants, CommunicationVanishesOnOneGpu) {
  test::space::expect_holds(test::small_rmat(), {.gpus = 1});
}

TEST(Invariants, ModeledTimeDecomposes) {
  const auto g = test::small_rmat();
  auto machine = test::test_machine(4);
  const auto result = prim::run_bfs(g, test::first_connected_vertex(g),
                                    machine, test::config_for(4));
  const auto& s = result.stats;
  EXPECT_NEAR(s.modeled_total_s(),
              s.modeled_compute_s + s.modeled_comm_s + s.modeled_overhead_s,
              1e-12);
  EXPECT_GT(s.modeled_overhead_s, 0.0);
  // Overhead per iteration equals l(4).
  EXPECT_NEAR(s.modeled_overhead_s,
              s.iterations * vgpu::sync_overhead_seconds(4), 1e-9);
}

TEST(Invariants, WorkloadScaleMonotone) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  double previous = 0;
  for (const double scale : {1.0, 8.0, 64.0}) {
    auto machine = test::test_machine(2);
    machine.set_workload_scale(scale);
    const auto result =
        prim::run_bfs(g, src, machine, test::config_for(2));
    EXPECT_GT(result.stats.modeled_total_s(), previous);
    previous = result.stats.modeled_total_s();
  }
}

TEST(Invariants, ClusterMachineRunsAllPrimitivesCorrectly) {
  // §VIII extension: a 2x2 cluster must give identical answers —
  // topology only changes modeled cost.
  const auto g = test::small_rmat(7, 5);
  const auto weighted = test::small_weighted_rmat(7, 5);
  for (const Prim prim :
       {Prim::kBfs, Prim::kDobfs, Prim::kSssp, Prim::kCc, Prim::kBc,
        Prim::kPr, Prim::kLp, Prim::kMsBfs, Prim::kMsSssp}) {
    const bool w = prim == Prim::kSssp || prim == Prim::kMsSssp;
    test::space::expect_holds(w ? weighted : g,
                              {.prim = prim, .gpus = 4, .nodes = 2});
  }
}

TEST(Invariants, ClusterCommunicationCostsMore) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  auto single = test::test_machine(4);
  auto cluster = vgpu::Machine::create_cluster("k40", 2, 2);
  single.set_workload_scale(256);
  cluster.set_workload_scale(256);
  const auto a = prim::run_bfs(g, src, single, test::config_for(4));
  const auto b = prim::run_bfs(g, src, cluster, test::config_for(4));
  EXPECT_GT(b.stats.modeled_comm_s, a.stats.modeled_comm_s);
}

}  // namespace
}  // namespace mgg
