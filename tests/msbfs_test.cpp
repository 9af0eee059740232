// Differential suite for the bit-packed multi-source primitives: a
// batched run's per-slot results must be bit-identical to running each
// source individually, across GPU counts, schedules, and wire formats
// (the serving layer's correctness rests entirely on this).
#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "primitives/bfs.hpp"
#include "primitives/multi_source.hpp"
#include "primitives/sssp.hpp"
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

/// Individual-run goldens, computed once per source at 1 vGPU and
/// reused across every cell (results are mode-invariant, pinned by the
/// primitive suites).
const std::vector<VertexT>& bfs_golden(VertexT src) {
  static std::map<VertexT, std::vector<VertexT>> cache;
  auto it = cache.find(src);
  if (it == cache.end()) {
    auto machine = test::test_machine(1);
    it = cache
             .emplace(src, prim::run_bfs(bfs_graph(), src, machine,
                                         test::config_for(1))
                               .labels)
             .first;
  }
  return it->second;
}

const std::vector<ValueT>& sssp_golden(VertexT src) {
  static std::map<VertexT, std::vector<ValueT>> cache;
  auto it = cache.find(src);
  if (it == cache.end()) {
    auto machine = test::test_machine(1);
    it = cache
             .emplace(src, prim::run_sssp(sssp_graph(), src, machine,
                                          test::config_for(1))
                               .dist)
             .first;
  }
  return it->second;
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

std::string cell_name(const Cell& cell) {
  return std::to_string(cell.gpus) + "gpu/" +
         (cell.pipeline ? "pipeline" : "bsp") + "/" +
         (cell.auto_wire ? "auto" : "raw");
}

void expect_bfs_matches(const prim::MsBfsResult& result,
                        std::span<const VertexT> srcs,
                        const std::string& where) {
  const std::size_t nv = bfs_graph().num_vertices;
  ASSERT_EQ(result.width, static_cast<int>(srcs.size())) << where;
  for (int slot = 0; slot < result.width; ++slot) {
    const auto& golden = bfs_golden(srcs[slot]);
    const auto got = result.slot(slot, nv);
    ASSERT_TRUE(std::equal(golden.begin(), golden.end(), got.begin()))
        << where << " slot " << slot << " source " << srcs[slot];
  }
}

void expect_sssp_matches(const prim::MsSsspResult& result,
                         std::span<const VertexT> srcs,
                         const std::string& where) {
  const std::size_t nv = sssp_graph().num_vertices;
  ASSERT_EQ(result.width, static_cast<int>(srcs.size())) << where;
  for (int slot = 0; slot < result.width; ++slot) {
    const auto& golden = sssp_golden(srcs[slot]);
    const auto got = result.slot(slot, nv);
    // Bit-identical, not approximately equal: batched relaxations reach
    // the same least fixpoint of the same float path sums.
    ASSERT_TRUE(std::equal(golden.begin(), golden.end(), got.begin()))
        << where << " slot " << slot << " source " << srcs[slot];
  }
}

TEST(MsBfs, FullBatchDifferentialAcrossCells) {
  const auto srcs = pick_sources(bfs_graph(), prim::kMaxBatchWidth, 42);
  for (const Cell& cell : all_cells()) {
    auto machine = test::test_machine(cell.gpus);
    const auto result =
        prim::run_msbfs(bfs_graph(), srcs, machine, cell_config(cell));
    expect_bfs_matches(result, srcs, cell_name(cell));
  }
}

TEST(MsBfs, PartialBatches) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{7},
                                  std::size_t{63}}) {
    const auto srcs = pick_sources(bfs_graph(), width, 1000 + width);
    for (const bool auto_wire : {false, true}) {
      Cell cell{4, false, auto_wire};
      auto machine = test::test_machine(4);
      const auto result =
          prim::run_msbfs(bfs_graph(), srcs, machine, cell_config(cell));
      expect_bfs_matches(result, srcs,
                         "width=" + std::to_string(width) + "/" +
                             cell_name(cell));
    }
  }
}

TEST(MsBfs, DuplicateSourceBatches) {
  // Slots sharing a source must shadow each other bit-for-bit.
  const auto base = pick_sources(bfs_graph(), 5, 77);
  std::vector<VertexT> srcs = {base[0], base[1], base[0], base[2],
                               base[1], base[0], base[3], base[4]};
  auto machine = test::test_machine(4);
  const auto result =
      prim::run_msbfs(bfs_graph(), srcs, machine, test::config_for(4));
  expect_bfs_matches(result, srcs, "duplicates");
}

TEST(MsBfs, SsspFullBatchDifferentialAcrossCells) {
  const auto srcs = pick_sources(sssp_graph(), prim::kMaxBatchWidth, 43);
  for (const Cell& cell : all_cells()) {
    auto machine = test::test_machine(cell.gpus);
    const auto result =
        prim::run_msssp(sssp_graph(), srcs, machine, cell_config(cell));
    expect_sssp_matches(result, srcs, cell_name(cell));
  }
}

TEST(MsBfs, SsspPartialAndDuplicateBatches) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{7},
                                  std::size_t{63}}) {
    const auto srcs = pick_sources(sssp_graph(), width, 2000 + width);
    auto machine = test::test_machine(4);
    const auto result =
        prim::run_msssp(sssp_graph(), srcs, machine, test::config_for(4));
    expect_sssp_matches(result, srcs, "width=" + std::to_string(width));
  }
  const auto base = pick_sources(sssp_graph(), 3, 78);
  std::vector<VertexT> srcs = {base[0], base[1], base[0], base[2], base[1]};
  auto machine = test::test_machine(4);
  const auto result =
      prim::run_msssp(sssp_graph(), srcs, machine, test::config_for(4));
  expect_sssp_matches(result, srcs, "sssp duplicates");
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
