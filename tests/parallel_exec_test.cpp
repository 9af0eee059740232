// Differential tests for host worker-pool execution
// (Config::host_threads; docs/architecture.md §12).
//
// The pool is a wall-clock-only knob: results, frontiers, W and H
// counters, and modeled times must be bit-identical at every
// --host-threads value, under both superstep schedules and both
// compressed wire formats. These tests pin that contract, the pool's
// error protocol (a chunk exception propagates deterministically
// without deadlocking or poisoning the pool), and the steady-state
// zero-allocation property of the parallel fused pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "config_space.hpp"
#include "core/comm.hpp"
#include "core/frontier.hpp"
#include "core/operators.hpp"
#include "core/problem.hpp"
#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/dobfs.hpp"
#include "primitives/pagerank.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"
#include "vgpu/cost.hpp"

namespace mgg {
namespace {

constexpr int kGpus = 4;
const int kThreadCounts[] = {1, 2, 4, 8};

/// Everything deterministic in RunStats — including modeled times,
/// which the pool must not perturb (unlike the sync-mode tests, where
/// times legitimately differ).
void expect_same_stats(const vgpu::RunStats& a, const vgpu::RunStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.total_edges, b.total_edges) << label;
  EXPECT_EQ(a.total_vertices, b.total_vertices) << label;
  EXPECT_EQ(a.total_launches, b.total_launches) << label;
  EXPECT_EQ(a.total_comm_items, b.total_comm_items) << label;
  EXPECT_EQ(a.total_comm_bytes, b.total_comm_bytes) << label;
  EXPECT_EQ(a.total_combine_items, b.total_combine_items) << label;
  EXPECT_EQ(a.wire_bytes_raw, b.wire_bytes_raw) << label;
  EXPECT_EQ(a.wire_bytes_bitmap, b.wire_bytes_bitmap) << label;
  EXPECT_EQ(a.wire_bytes_delta, b.wire_bytes_delta) << label;
  EXPECT_EQ(a.wire_encode_vertices, b.wire_encode_vertices) << label;
  EXPECT_EQ(a.wire_decode_vertices, b.wire_decode_vertices) << label;
  EXPECT_EQ(a.modeled_compute_s, b.modeled_compute_s) << label;
  EXPECT_EQ(a.modeled_comm_s, b.modeled_comm_s) << label;
  EXPECT_EQ(a.modeled_overhead_s, b.modeled_overhead_s) << label;
  EXPECT_EQ(a.modeled_overlap_hidden_s, b.modeled_overlap_hidden_s) << label;
}

/// Every (sync mode, wire format) cell of `prim` at 2, 4 and 8 workers;
/// each draw reruns at one worker and must keep results and every
/// RunStats field, modeled times included (tests/config_space.hpp).
void expect_widths_hold(const graph::Graph& g, test::space::Prim prim,
                        bool preds = false) {
  for (const core::SyncMode sync :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    for (const core::WireFormat wire :
         {core::WireFormat::kRawIds, core::WireFormat::kAuto}) {
      for (const int threads : kThreadCounts) {
        if (threads == 1) continue;
        test::space::expect_holds(
            g, {.prim = prim,
                .gpus = kGpus,
                .cfg = {.sync_mode = sync,
                        .mark_predecessors = preds,
                        .wire_format = wire,
                        .host_threads = threads}});
      }
    }
  }
}

TEST(ParallelExec, BfsBitIdenticalAcrossHostThreads) {
  expect_widths_hold(test::small_rmat(), test::space::Prim::kBfs, true);
}

TEST(ParallelExec, SsspBitIdenticalAcrossHostThreads) {
  expect_widths_hold(test::small_weighted_rmat(), test::space::Prim::kSssp);
}

TEST(ParallelExec, PagerankBitIdenticalAcrossHostThreads) {
  expect_widths_hold(test::small_rmat(), test::space::Prim::kPr);
}

TEST(ParallelExec, BcBitIdenticalAcrossHostThreads) {
  expect_widths_hold(test::small_rmat(), test::space::Prim::kBc);
}

// DOBFS exercises the parallel pull path, whose parent reads go
// through relaxed atomic_refs; the direction switch schedule and
// results must not move with the pool width.
TEST(ParallelExec, DobfsBitIdenticalAcrossHostThreads) {
  expect_widths_hold(test::small_rmat(), test::space::Prim::kDobfs, true);
}

// -------------------------------------------------------------------
// Every advance pipeline at a size where its two-phase schedule runs.
// The cases above use a 256-vertex graph, so each per-GPU chunk plan
// has one chunk and only the sequential loops execute there.
// -------------------------------------------------------------------

/// One advance pipeline: fused, split (kFixedPrealloc) or dense. The
/// dense threshold puts every frontier of more than 0.03 * 8192 < 256
/// (kSlotGrain) vertices in the bitmap, so a dense BFS never runs the
/// fused schedule and the scratch check below is specific to each row.
struct PipelinePoint {
  const char* name;
  vgpu::AllocationScheme scheme;
  double dense_threshold;
};
const PipelinePoint kPipelines[] = {
    {"fused", vgpu::AllocationScheme::kPreallocFusion, 0},
    {"split", vgpu::AllocationScheme::kFixedPrealloc, 0},
    {"dense", vgpu::AllocationScheme::kPreallocFusion, 0.03},
};

core::Config pipeline_config(const PipelinePoint& p, int host_threads) {
  core::Config cfg = test::config_for(kGpus);
  cfg.scheme = p.scheme;
  cfg.dense_threshold = p.dense_threshold;
  cfg.host_threads = host_threads;
  cfg.mark_predecessors = true;
  return cfg;
}

/// memcmp, not ==: an FP divergence must fail even through a NaN.
template <typename T>
void expect_same_bytes(const std::vector<T>& a, const std::vector<T>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
      << label;
}

struct PipelineRun {
  prim::BfsResult bfs;
  prim::PagerankResult pr;
  prim::BcResult bc;
  prim::DobfsResult dobfs;
};

PipelineRun run_pipeline(const graph::Graph& g, VertexT src,
                         const core::Config& cfg) {
  PipelineRun r;
  auto m0 = test::test_machine(kGpus);
  r.bfs = prim::run_bfs(g, src, m0, cfg);
  auto m1 = test::test_machine(kGpus);
  r.pr = prim::run_pagerank(g, m1, cfg);
  auto m2 = test::test_machine(kGpus);
  r.bc = prim::run_bc(g, m2, cfg, {src});
  auto m3 = test::test_machine(kGpus);
  r.dobfs = prim::run_dobfs(g, src, m3, cfg);
  return r;
}

TEST(ParallelExec, PipelinesBitIdenticalAcrossHostThreads) {
  const auto g = test::small_rmat(13, 8);  // |V_i| = 8192 on every GPU
  const VertexT src = test::first_connected_vertex(g);
  for (const PipelinePoint& p : kPipelines) {
    {
      // Non-vacuity: at width 4 this pipeline's parallel phase runs.
      auto machine = test::test_machine(kGpus);
      prim::BfsProblem problem;
      problem.init(g, machine, pipeline_config(p, 4));
      prim::BfsEnactor enactor(problem);
      enactor.reset(src);
      enactor.enact();
      std::size_t scratch = 0;
      for (int gpu = 0; gpu < kGpus; ++gpu) {
        scratch += enactor.slice(gpu).ctx.par_scratch_bytes();
      }
      EXPECT_GT(scratch, 0u) << p.name;
    }
    const PipelineRun ref = run_pipeline(g, src, pipeline_config(p, 1));
    for (const int threads : kThreadCounts) {
      if (threads == 1) continue;
      const PipelineRun r = run_pipeline(g, src, pipeline_config(p, threads));
      const std::string label =
          std::string(p.name) + " threads=" + std::to_string(threads);
      expect_same_bytes(r.bfs.labels, ref.bfs.labels, label + " bfs");
      expect_same_bytes(r.bfs.preds, ref.bfs.preds, label + " bfs");
      expect_same_stats(r.bfs.stats, ref.bfs.stats, label + " bfs");
      expect_same_bytes(r.pr.rank, ref.pr.rank, label + " pr");
      expect_same_stats(r.pr.stats, ref.pr.stats, label + " pr");
      expect_same_bytes(r.bc.bc, ref.bc.bc, label + " bc");
      expect_same_stats(r.bc.stats, ref.bc.stats, label + " bc");
      expect_same_bytes(r.dobfs.labels, ref.dobfs.labels, label + " dobfs");
      expect_same_bytes(r.dobfs.preds, ref.dobfs.preds, label + " dobfs");
      EXPECT_EQ(r.dobfs.direction_switches, ref.dobfs.direction_switches)
          << label;
      expect_same_stats(r.dobfs.stats, ref.dobfs.stats, label + " dobfs");
    }
  }
}

// -------------------------------------------------------------------
// Pool error protocol and scheduling properties.
// -------------------------------------------------------------------

TEST(ParallelExec, ChunkExceptionPropagatesDeterministically) {
  util::ThreadPool& pool = util::ThreadPool::shared();
  pool.set_workers(4);
  std::atomic<int> ran{0};
  try {
    pool.run_chunks(16, [&](std::size_t c) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (c == 3 || c == 11) {
        throw std::runtime_error("chunk " + std::to_string(c));
      }
    });
    FAIL() << "expected the chunk exception to propagate";
  } catch (const std::runtime_error& e) {
    // Lowest chunk index wins regardless of claim timing.
    EXPECT_STREQ(e.what(), "chunk 3");
  }
  // Every chunk still ran (no abandoned work behind the throw)...
  EXPECT_EQ(ran.load(), 16);
  // ...and the pool is immediately reusable.
  std::atomic<int> again{0};
  pool.run_chunks(8,
                  [&](std::size_t) { again.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(again.load(), 8);
  pool.set_workers(1);
}

TEST(ParallelExec, NestedRunChunksFallsBackInline) {
  util::ThreadPool& pool = util::ThreadPool::shared();
  pool.set_workers(4);
  std::atomic<int> inner_total{0};
  pool.run_chunks(4, [&](std::size_t) {
    // Nested use must not deadlock: the inner call detects the held
    // job and runs its chunks inline on this thread.
    pool.run_chunks(8, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
  pool.set_workers(1);
}

TEST(ParallelExec, ChunkPlanIsPureFunctionOfWorkSize) {
  using util::ThreadPool;
  // The plan never depends on the worker count: these are static
  // functions of (total, grain) alone.
  EXPECT_EQ(ThreadPool::chunk_count(0, 256), 1u);
  EXPECT_EQ(ThreadPool::chunk_count(1, 256), 1u);
  EXPECT_EQ(ThreadPool::chunk_count(257, 256), 2u);
  EXPECT_EQ(ThreadPool::chunk_count(1 << 30, 1), ThreadPool::kMaxChunks);
  for (const std::size_t total : {1u, 17u, 4096u, 100000u}) {
    const std::size_t n = ThreadPool::chunk_count(total, 256);
    EXPECT_EQ(ThreadPool::chunk_begin(total, n, 0), 0u);
    EXPECT_EQ(ThreadPool::chunk_begin(total, n, n), total);
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_LE(ThreadPool::chunk_begin(total, n, c),
                ThreadPool::chunk_begin(total, n, c + 1));
    }
  }
  EXPECT_GE(ThreadPool::resolve_width(0), 1);
  EXPECT_LE(ThreadPool::resolve_width(0), 8);
  EXPECT_EQ(ThreadPool::resolve_width(3), 3);
  EXPECT_EQ(ThreadPool::resolve_width(10000), ThreadPool::kMaxWorkers);
}

// -------------------------------------------------------------------
// Steady-state allocation regression: once warm, the parallel fused
// pipeline's per-chunk scratch stops growing and the frontier stops
// reallocating — iterations are allocation-free exactly like the
// sequential fused core.
// -------------------------------------------------------------------

TEST(ParallelExec, ParallelFusedSteadyStateDoesNotGrowScratch) {
  const auto g = test::small_rmat(10, 8);
  auto machine = test::test_machine(1);
  vgpu::Device& device = machine.device(0);

  core::Frontier frontier;
  frontier.init(device, vgpu::AllocationScheme::kPreallocFusion,
                g.num_vertices, g.num_edges);
  util::AtomicBitset dedup;
  dedup.resize(g.num_vertices);
  util::Array1D<VertexT> temp{"advance_temp"};
  util::Array1D<SizeT> temp_edges{"advance_temp_edges"};
  temp.set_allocator(&device.memory());
  temp_edges.set_allocator(&device.memory());
  core::OpContext ctx{&device, &g,          &frontier,
                      &temp,   &temp_edges, &dedup,
                      vgpu::AllocationScheme::kPreallocFusion};
  util::ThreadPool& pool = util::ThreadPool::shared();
  pool.set_workers(4);
  ctx.pool = &pool;

  std::vector<VertexT> labels(g.num_vertices, 0);
  std::vector<VertexT> all(g.num_vertices);
  for (VertexT v = 0; v < g.num_vertices; ++v) all[v] = v;
  frontier.set_input(all);

  // Emit-all workload: maximal candidate logs, so the scratch
  // high-water mark is reached during warm-up.
  auto iterate = [&] {
    core::advance_filter(
        ctx, [&](VertexT, VertexT, SizeT) { return true; },
        [&](VertexT src, VertexT dst, SizeT) {
          labels[dst] = src;
          return true;
        });
    frontier.swap();
  };
  for (int i = 0; i < 5; ++i) iterate();

  const std::size_t warm_scratch = ctx.par_scratch_bytes();
  const std::uint64_t warm_reallocs = frontier.realloc_count();
  EXPECT_GT(warm_scratch, 0u);  // the parallel path really ran
  for (int i = 0; i < 10; ++i) iterate();
  EXPECT_EQ(ctx.par_scratch_bytes(), warm_scratch);
  EXPECT_EQ(frontier.realloc_count(), warm_reallocs);
  pool.set_workers(1);
}

}  // namespace
}  // namespace mgg
