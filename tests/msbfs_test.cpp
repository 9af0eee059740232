// Differential suite for the bit-packed multi-source primitives: a
// batched run's per-slot results must be bit-identical to running each
// source individually, across GPU counts, schedules, and wire formats
// (the serving layer's correctness rests entirely on this). The batch
// cases are pinned draws of the configuration-space differential
// (tests/config_space.hpp), which checks every slot bitwise against
// the CPU oracle's run from that slot's source.
#include <vector>

#include <gtest/gtest.h>

#include "config_space.hpp"
#include "primitives/bfs.hpp"
#include "primitives/multi_source.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace mgg {
namespace {

const graph::Graph& bfs_graph() {
  static const graph::Graph g = test::small_rmat();
  return g;
}

const graph::Graph& sssp_graph() {
  static const graph::Graph g = test::small_weighted_rmat();
  return g;
}

std::vector<VertexT> pick_sources(const graph::Graph& g, std::size_t n,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<VertexT> srcs;
  srcs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    srcs.push_back(static_cast<VertexT>(rng.next_below(g.num_vertices)));
  }
  return srcs;
}

struct Cell {
  int gpus;
  bool pipeline;
  bool auto_wire;
};

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const int gpus : {1, 2, 4, 8}) {
    for (const bool pipeline : {false, true}) {
      for (const bool auto_wire : {false, true}) {
        cells.push_back({gpus, pipeline, auto_wire});
      }
    }
  }
  return cells;
}

core::Config cell_config(const Cell& cell) {
  core::Config cfg = test::config_for(cell.gpus);
  cfg.sync_mode = cell.pipeline ? core::SyncMode::kEventPipeline
                                : core::SyncMode::kBspBarrier;
  cfg.wire_format =
      cell.auto_wire ? core::WireFormat::kAuto : core::WireFormat::kRawIds;
  return cfg;
}

TEST(MsBfs, FullBatchDifferentialAcrossCells) {
  const auto srcs = pick_sources(bfs_graph(), prim::kMaxBatchWidth, 42);
  for (const Cell& cell : all_cells()) {
    test::space::expect_holds(bfs_graph(),
                              {.prim = test::space::Prim::kMsBfs,
                               .gpus = cell.gpus,
                               .sources = srcs,
                               .cfg = cell_config(cell)});
  }
}

TEST(MsBfs, PartialBatches) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{7},
                                  std::size_t{63}}) {
    const auto srcs = pick_sources(bfs_graph(), width, 1000 + width);
    for (const bool auto_wire : {false, true}) {
      test::space::expect_holds(bfs_graph(),
                                {.prim = test::space::Prim::kMsBfs,
                                 .gpus = 4,
                                 .sources = srcs,
                                 .cfg = cell_config({4, false, auto_wire})});
    }
  }
}

TEST(MsBfs, DuplicateSourceBatches) {
  // Slots sharing a source must shadow each other bit-for-bit.
  const auto base = pick_sources(bfs_graph(), 5, 77);
  test::space::expect_holds(
      bfs_graph(), {.prim = test::space::Prim::kMsBfs,
                    .gpus = 4,
                    .sources = {base[0], base[1], base[0], base[2], base[1],
                                base[0], base[3], base[4]}});
}

TEST(MsBfs, SsspFullBatchDifferentialAcrossCells) {
  const auto srcs = pick_sources(sssp_graph(), prim::kMaxBatchWidth, 43);
  for (const Cell& cell : all_cells()) {
    test::space::expect_holds(sssp_graph(),
                              {.prim = test::space::Prim::kMsSssp,
                               .gpus = cell.gpus,
                               .sources = srcs,
                               .cfg = cell_config(cell)});
  }
}

TEST(MsBfs, SsspPartialAndDuplicateBatches) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{7},
                                  std::size_t{63}}) {
    test::space::expect_holds(
        sssp_graph(), {.prim = test::space::Prim::kMsSssp,
                       .gpus = 4,
                       .sources = pick_sources(sssp_graph(), width,
                                               2000 + width)});
  }
  const auto base = pick_sources(sssp_graph(), 3, 78);
  test::space::expect_holds(
      sssp_graph(),
      {.prim = test::space::Prim::kMsSssp,
       .gpus = 4,
       .sources = {base[0], base[1], base[0], base[2], base[1]}});
}

TEST(MsBfs, BatchedRunAmortizesWorkAndComm) {
  // The point of the batch: one 64-source traversal must model far
  // less W+H than 64 individual traversals (the bench gates >= 3x on
  // the larger graphs; the tiny test graph still shows a clear win).
  const auto srcs = pick_sources(bfs_graph(), prim::kMaxBatchWidth, 44);
  auto machine = test::test_machine(4);
  const auto cfg = test::config_for(4);
  const auto batched = prim::run_msbfs(bfs_graph(), srcs, machine, cfg);
  double individual = 0;
  for (const VertexT src : srcs) {
    const auto r = prim::run_bfs(bfs_graph(), src, machine, cfg);
    individual += r.stats.modeled_compute_s + r.stats.modeled_comm_s;
  }
  const double batch_cost =
      batched.stats.modeled_compute_s + batched.stats.modeled_comm_s;
  ASSERT_GT(batch_cost, 0.0);
  EXPECT_GT(individual / batch_cost, 2.0);
}

TEST(MsBfs, RejectsInvalidBatches) {
  EXPECT_THROW(prim::MsBfsProblem(0), Error);
  EXPECT_THROW(prim::MsBfsProblem(prim::kMaxBatchWidth + 1), Error);
  auto machine = test::test_machine(1);
  prim::MsBfsProblem problem(4);
  problem.init(bfs_graph(), machine, test::config_for(1));
  prim::MsBfsEnactor enactor(problem);
  EXPECT_THROW(enactor.reset(std::vector<VertexT>{}), Error);
  const std::vector<VertexT> too_many(5, 0);
  EXPECT_THROW(enactor.reset(too_many), Error);
  const std::vector<VertexT> out_of_range = {
      static_cast<VertexT>(bfs_graph().num_vertices)};
  EXPECT_THROW(enactor.reset(out_of_range), Error);
}

// Serving reuses one Problem/Enactor pair for many back-to-back
// enactments (reset + enact per batch). Pooled per-query state —
// frontier dense flags, operator dedup bitmaps, comm-bus inboxes,
// mask/update words — must carry nothing across runs: every reused
// run must be bit-identical to a fresh-instance run of the same batch.
TEST(MsBfs, BackToBackEnactmentsCarryNoState) {
  const auto g = test::small_rmat();
  auto cfg = test::config_for(4);
  // Dense mode on: the dense frontier flags are exactly the kind of
  // pooled state a stale run could leak through.
  cfg.dense_threshold = 0.25;
  auto machine = test::test_machine(4);
  prim::MsBfsProblem problem(prim::kMaxBatchWidth);
  problem.init(g, machine, cfg);
  prim::MsBfsEnactor enactor(problem);

  util::Rng rng(99);
  for (int round = 0; round < 6; ++round) {
    // Alternate widths so a wide run precedes a narrow one — stale
    // high-slot state from round k would corrupt round k+1.
    const std::size_t width = (round % 2 == 0) ? 64 : 3;
    std::vector<VertexT> srcs;
    for (std::size_t i = 0; i < width; ++i) {
      srcs.push_back(static_cast<VertexT>(rng.next_below(g.num_vertices)));
    }
    enactor.reset(srcs);
    const auto reused_stats = enactor.enact();

    auto fresh_machine = test::test_machine(4);
    const auto fresh = prim::run_msbfs(g, srcs, fresh_machine, cfg);
    EXPECT_EQ(fresh.stats.iterations, reused_stats.iterations)
        << "round " << round;
    EXPECT_EQ(fresh.stats.total_edges, reused_stats.total_edges)
        << "round " << round;
    EXPECT_EQ(fresh.stats.total_comm_bytes, reused_stats.total_comm_bytes)
        << "round " << round;
    const auto& pg = problem.partitioned();
    for (std::size_t slot = 0; slot < width; ++slot) {
      const auto want = fresh.slot(static_cast<int>(slot), g.num_vertices);
      for (VertexT v = 0; v < g.num_vertices; ++v) {
        const int gpu = pg.owner_of(v);
        const std::size_t stride = pg.sub(gpu).num_total();
        const VertexT got =
            problem.data(gpu).depth[slot * stride + pg.host_local_of(v)];
        ASSERT_EQ(want[v], got)
            << "round " << round << " slot " << slot << " vertex " << v;
      }
    }
  }
}

}  // namespace
}  // namespace mgg
