// Differential property tests for the operator pipelines: the fused
// single-pass advance, the split two-kernel advance, and the dense
// bitmap advance must agree on the produced frontier and on the
// counted work (W: edges), and whole primitives must produce identical
// results no matter which pipeline executes them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "config_space.hpp"
#include "core/enactor.hpp"
#include "core/frontier.hpp"
#include "core/operators.hpp"
#include "graph/generators.hpp"
#include "primitives/bfs.hpp"
#include "primitives/common.hpp"
#include "primitives/pagerank.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

using core::Frontier;
using core::LoadBalance;
using vgpu::AllocationScheme;

/// One operator execution site with an adjustable pipeline.
struct PipelineEnv {
  PipelineEnv(const graph::Graph& graph, AllocationScheme scheme,
              double dense_threshold, LoadBalance lb)
      : machine(vgpu::Machine::create("k40", 1)), g(graph) {
    frontier.init(machine.device(0), scheme, g.num_vertices, g.num_edges);
    dedup.resize(g.num_vertices);
    temp.set_allocator(&machine.device(0).memory());
    temp_edges.set_allocator(&machine.device(0).memory());
    if (scheme == AllocationScheme::kMax) {
      temp.allocate(g.num_edges);
      temp_edges.allocate(g.num_edges);
    }
    ctx = core::OpContext{&machine.device(0), &g,          &frontier,
                          &temp,              &temp_edges, &dedup,
                          scheme,             lb};
    ctx.dense_threshold = dense_threshold;
  }

  /// Run one visited-gated advance from `seed` and return (sorted
  /// output frontier, counted edge work).
  std::pair<std::vector<VertexT>, std::uint64_t> advance_once(
      const std::vector<VertexT>& seed) {
    machine.device(0).harvest_iteration();  // reset counters
    frontier.clear();
    frontier.set_input(seed);
    std::vector<char> visited(g.num_vertices, 0);
    core::advance_filter(ctx, [&](VertexT, VertexT dst, SizeT) {
      if (visited[dst]) return false;
      visited[dst] = 1;
      return true;
    });
    std::vector<VertexT> out;
    frontier.for_each_output([&](VertexT v) { out.push_back(v); });
    std::sort(out.begin(), out.end());
    return {out, machine.device(0).harvest_iteration().edges};
  }

  vgpu::Machine machine;
  graph::Graph g;
  Frontier frontier;
  util::AtomicBitset dedup;
  util::Array1D<VertexT> temp{"advance_temp"};
  util::Array1D<SizeT> temp_edges{"advance_temp_edges"};
  core::OpContext ctx;
};

struct PipelineSpec {
  const char* name;
  AllocationScheme scheme;
  double dense_threshold;
};

constexpr PipelineSpec kPipelines[] = {
    {"fused", AllocationScheme::kPreallocFusion, 0.0},
    {"split", AllocationScheme::kMax, 0.0},
    {"dense", AllocationScheme::kPreallocFusion, 1e-9},
};

TEST(OperatorPipeline, SingleAdvanceAgreesAcrossPipelinesAndPolicies) {
  const graph::Graph graphs[] = {test::small_rmat(8, 8, 7),
                                 test::small_rmat(9, 4, 21),
                                 test::small_grid(16, 16, 3)};
  for (const auto& g : graphs) {
    // A scattered seed frontier (every 3rd vertex with edges).
    std::vector<VertexT> seed;
    for (VertexT v = 0; v < g.num_vertices; v += 3) {
      if (g.degree(v) > 0) seed.push_back(v);
    }
    ASSERT_FALSE(seed.empty());
    for (const LoadBalance lb :
         {LoadBalance::kEdgeBalanced, LoadBalance::kThreadPerVertex}) {
      PipelineEnv reference(g, kPipelines[0].scheme,
                            kPipelines[0].dense_threshold, lb);
      const auto [ref_out, ref_edges] = reference.advance_once(seed);
      EXPECT_GT(ref_edges, 0u);
      for (const auto& spec : kPipelines) {
        PipelineEnv env(g, spec.scheme, spec.dense_threshold, lb);
        const auto [out, edges] = env.advance_once(seed);
        EXPECT_EQ(out, ref_out) << spec.name;
        EXPECT_EQ(edges, ref_edges) << spec.name;
        if (spec.dense_threshold > 0) {
          EXPECT_TRUE(env.frontier.last_advance_dense());
          EXPECT_GE(env.frontier.dense_switches(), 1u);
        } else {
          EXPECT_FALSE(env.frontier.last_advance_dense());
        }
      }
    }
  }
}

// The split scheme sizes its intermediate candidate buffers (Fig. 3's
// memory) and charges both of its kernels, but its advance is the
// fused walk: the buffers are never written, and the output frontier
// (emission order included) and the edge work equal the fused
// pipeline's, in both advance_filter forms, with and without a pool.
TEST(OperatorPipeline, SplitSizesButNeverWritesItsBuffers) {
  const auto g = test::small_rmat(12, 8, 5);
  std::vector<VertexT> seed;
  for (VertexT v = 0; v < g.num_vertices; v += 2) {
    if (g.degree(v) > 0) seed.push_back(v);
  }
  ASSERT_GT(seed.size(), 2 * core::detail::kSlotGrain);  // several chunks
  SizeT degree_sum = 0;
  for (const VertexT v : seed) degree_sum += g.degree(v);

  struct Advance {
    std::vector<VertexT> out;  ///< emission order
    vgpu::IterationCounters counters;
  };
  auto run = [&](PipelineEnv& env, bool with_test, util::ThreadPool* pool) {
    env.ctx.pool = pool;
    env.machine.device(0).harvest_iteration();
    env.frontier.clear();
    env.frontier.set_input(seed);
    std::vector<char> visited(g.num_vertices, 0);
    const auto test = [&](VertexT, VertexT dst, SizeT) {
      return visited[dst] == 0;
    };
    const auto op = [&](VertexT, VertexT dst, SizeT) {
      if (visited[dst]) return false;
      visited[dst] = 1;
      return true;
    };
    if (with_test) {
      core::advance_filter(env.ctx, test, op);
    } else {
      core::advance_filter(env.ctx, op);
    }
    Advance a;
    env.frontier.for_each_output([&](VertexT v) { a.out.push_back(v); });
    a.counters = env.machine.device(0).harvest_iteration();
    return a;
  };

  util::ThreadPool& pool = util::ThreadPool::shared();
  pool.set_workers(4);
  PipelineEnv fused(g, AllocationScheme::kPreallocFusion, 0.0,
                    LoadBalance::kEdgeBalanced);
  const Advance ref = run(fused, false, nullptr);
  ASSERT_FALSE(ref.out.empty());
  EXPECT_EQ(ref.counters.edges, degree_sum);
  EXPECT_EQ(ref.counters.launches, 1u);

  constexpr VertexT kVertexSentinel = 0xA5A5A5A5u;
  const SizeT edge_sentinel = static_cast<SizeT>(0x5A5A5A5A5A5A5A5Aull);
  for (const AllocationScheme scheme :
       {AllocationScheme::kMax, AllocationScheme::kFixedPrealloc}) {
    // kMax starts at |E|; kFixedPrealloc starts empty here, so its first
    // advance sizes both buffers to the degree sum.
    PipelineEnv env(g, scheme, 0.0, LoadBalance::kEdgeBalanced);
    std::vector<Advance> runs{run(env, false, nullptr)};
    const std::string name = vgpu::to_string(scheme);
    EXPECT_GE(env.temp.capacity(), degree_sum) << name;
    EXPECT_GE(env.temp_edges.capacity(), degree_sum) << name;
    env.temp.fill(kVertexSentinel);
    env.temp_edges.fill(edge_sentinel);
    for (const bool with_test : {false, true}) {
      for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                  &pool}) {
        runs.push_back(run(env, with_test, p));
      }
    }
    EXPECT_GT(env.ctx.par_scratch_bytes(), 0u) << name;  // pool walk ran
    EXPECT_TRUE(std::all_of(env.temp.begin(), env.temp.end(),
                            [&](VertexT v) { return v == kVertexSentinel; }))
        << name;
    EXPECT_TRUE(std::all_of(env.temp_edges.begin(), env.temp_edges.end(),
                            [&](SizeT e) { return e == edge_sentinel; }))
        << name;
    for (const Advance& a : runs) {
      EXPECT_EQ(a.out, ref.out) << name;
      EXPECT_EQ(a.counters.edges, ref.counters.edges) << name;
      // "advance" over the input, then "filter_compact" over the
      // candidates.
      EXPECT_EQ(a.counters.launches, 2u) << name;
      EXPECT_EQ(a.counters.vertices, seed.size() + degree_sum) << name;
      EXPECT_EQ(a.counters.compute_s, runs[0].counters.compute_s) << name;
    }
  }
  pool.set_workers(1);
}

// Whole split-scheme runs pinned to the values of the two-kernel
// pipeline that scattered every candidate into the intermediate buffers
// and read them back: walking the frontier instead changes no count,
// byte, modeled second (bit pattern), peak device byte, or frontier or
// intermediate-buffer reallocation.
TEST(OperatorPipeline, SplitSchemesMatchParent) {
  const auto g = test::small_rmat(13, 8);
  const VertexT src = test::first_connected_vertex(g);
  struct Pinned {
    const char* run;
    AllocationScheme scheme;
    std::uint64_t iterations, edges, launches, comm_bytes, modeled_bits;
    std::size_t peak_bytes;  ///< summed over the vGPUs
    std::size_t reallocs;    ///< frontier + intermediate buffers
  };
  constexpr Pinned kPinned[] = {
      {"bfs", AllocationScheme::kFixedPrealloc, 5, 110498, 100, 46592,
       4564015405830007562u, 1861800, 8},
      {"bfs", AllocationScheme::kMax, 5, 110498, 100, 46592,
       4564015405830007562u, 2472832, 0},
      {"pr", AllocationScheme::kFixedPrealloc, 18, 1989144, 500, 1678320,
       4576175043021751935u, 2257352, 8},
      {"pr", AllocationScheme::kMax, 18, 1989144, 500, 1678320,
       4576175043021751935u, 2636672, 0},
  };
  constexpr int kGpus = 4;
  for (const Pinned& p : kPinned) {
    core::Config cfg = test::config_for(kGpus);
    cfg.scheme = p.scheme;
    auto machine = test::test_machine(kGpus);
    vgpu::RunStats stats;
    std::size_t reallocs = 0;
    auto enact = [&](core::EnactorBase& enactor) {
      stats = enactor.enact();
      for (int gpu = 0; gpu < kGpus; ++gpu) {
        const core::EnactorBase::Slice& s = enactor.slice(gpu);
        reallocs += s.frontier.realloc_count() +
                    s.advance_temp.realloc_count() +
                    s.advance_temp_edges.realloc_count();
      }
    };
    if (std::string(p.run) == "bfs") {
      prim::BfsProblem problem;
      problem.init(g, machine, cfg);
      prim::BfsEnactor enactor(problem);
      enactor.reset(src);
      enact(enactor);
    } else {
      // run_pagerank's iteration cap: one more than the option's.
      const prim::PagerankOptions options;
      cfg.max_iterations =
          static_cast<std::uint64_t>(options.max_iterations) + 1;
      prim::PagerankProblem problem;
      problem.init(g, machine, cfg);
      prim::PagerankEnactor enactor(problem, options);
      enactor.reset();
      enact(enactor);
    }
    std::size_t peak_bytes = 0;
    for (int gpu = 0; gpu < kGpus; ++gpu) {
      peak_bytes += machine.device(gpu).memory().peak_bytes();
    }
    const std::string name =
        std::string(p.run) + " " + vgpu::to_string(p.scheme);
    EXPECT_EQ(stats.iterations, p.iterations) << name;
    EXPECT_EQ(stats.total_edges, p.edges) << name;
    EXPECT_EQ(stats.total_launches, p.launches) << name;
    EXPECT_EQ(stats.total_comm_bytes, p.comm_bytes) << name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.modeled_total_s()),
              p.modeled_bits)
        << name;
    EXPECT_EQ(peak_bytes, p.peak_bytes) << name;
    EXPECT_EQ(reallocs, p.reallocs) << name;
  }
}

TEST(OperatorPipeline, DenseAdvanceSwitchesBackWhenFrontierShrinks) {
  const auto g = test::small_rmat(8, 8, 7);
  // Threshold of half the graph: a full seed goes dense, a tiny
  // follow-up frontier converts back to a queue.
  PipelineEnv env(g, AllocationScheme::kPreallocFusion, 0.5,
                  LoadBalance::kEdgeBalanced);
  std::vector<VertexT> all;
  for (VertexT v = 0; v < g.num_vertices; ++v) all.push_back(v);
  env.frontier.set_input(all);
  core::advance_filter(env.ctx,
                       [](VertexT, VertexT, SizeT) { return false; });
  EXPECT_TRUE(env.frontier.last_advance_dense());
  EXPECT_EQ(env.frontier.dense_switches(), 1u);
  env.frontier.swap();
  const VertexT tiny[] = {test::first_connected_vertex(g)};
  env.frontier.set_input(tiny);
  core::advance_filter(env.ctx,
                       [](VertexT, VertexT, SizeT) { return false; });
  EXPECT_FALSE(env.frontier.last_advance_dense());
}

// ---------------------------------------------------------------------
// Whole-primitive differential runs.
// ---------------------------------------------------------------------

core::Config pipeline_config(int gpus, const PipelineSpec& spec) {
  core::Config cfg = test::config_for(gpus);
  cfg.scheme = spec.scheme;
  cfg.dense_threshold = spec.dense_threshold;
  return cfg;
}

struct BfsRun {
  std::vector<VertexT> labels;
  std::vector<vgpu::IterationRecord> records;
  vgpu::RunStats stats;
};

BfsRun bfs_run(const graph::Graph& g, VertexT src, const core::Config& cfg) {
  auto machine = test::test_machine(cfg.num_gpus);
  prim::BfsProblem problem;
  problem.init(g, machine, cfg);
  prim::BfsEnactor enactor(problem);
  enactor.reset(src);
  BfsRun r;
  r.stats = enactor.enact();
  r.records = enactor.iteration_records();
  r.labels = prim::gather_vertex_values<VertexT>(
      problem.partitioned(),
      [&](int gpu, VertexT lv) { return problem.data(gpu).labels[lv]; });
  return r;
}

TEST(OperatorPipeline, BfsIdenticalAcrossPipelinesPerIteration) {
  const auto g = test::small_rmat(9, 8, 11);
  const VertexT src = test::first_connected_vertex(g);
  const BfsRun ref = bfs_run(g, src, pipeline_config(3, kPipelines[0]));
  EXPECT_EQ(ref.stats.dense_switches, 0u);
  for (const auto& spec : kPipelines) {
    const BfsRun run = bfs_run(g, src, pipeline_config(3, spec));
    EXPECT_EQ(run.labels, ref.labels) << spec.name;
    ASSERT_EQ(run.records.size(), ref.records.size()) << spec.name;
    for (std::size_t i = 0; i < run.records.size(); ++i) {
      EXPECT_EQ(run.records[i].edges, ref.records[i].edges)
          << spec.name << " iteration " << i;
      EXPECT_EQ(run.records[i].comm_items, ref.records[i].comm_items)
          << spec.name << " iteration " << i;
      EXPECT_EQ(run.records[i].frontier_total, ref.records[i].frontier_total)
          << spec.name << " iteration " << i;
    }
    if (spec.dense_threshold > 0) {
      EXPECT_GE(run.stats.dense_switches, 1u) << spec.name;
      std::uint64_t dense_gpus = 0;
      for (const auto& rec : run.records) dense_gpus += rec.dense_gpus;
      EXPECT_GT(dense_gpus, 0u) << spec.name;
    }
  }
}

// Each split or dense draw reruns fused: split keeps results and the
// W/H counters, dense keeps the answer (tests/config_space.hpp).
TEST(OperatorPipeline, SsspIdenticalAcrossPipelines) {
  const auto g = test::small_weighted_rmat(9, 8, 13);
  for (const auto& spec : kPipelines) {
    const auto run = test::space::expect_holds(
        g, {.prim = test::space::Prim::kSssp,
            .gpus = 3,
            .cfg = pipeline_config(3, spec)});
    if (spec.dense_threshold > 0) {
      EXPECT_GE(run.stats.dense_switches, 1u) << spec.name;
    }
  }
}

TEST(OperatorPipeline, PagerankBitwiseIdenticalAcrossPipelines) {
  // The dense bitmap iterates hosted vertices in the same ascending
  // order the sparse hosted list uses, so even floating-point
  // accumulation order is preserved: ranks are bitwise identical.
  const auto g = test::small_rmat(8, 8, 17);
  for (const auto& spec : kPipelines) {
    const auto run = test::space::expect_holds(
        g, {.prim = test::space::Prim::kPr,
            .gpus = 3,
            .cfg = pipeline_config(3, spec)});
    if (spec.dense_threshold > 0) {
      EXPECT_GE(run.stats.dense_switches, 1u) << spec.name;
    }
  }
}

// ---------------------------------------------------------------------
// Frontier API satellites.
// ---------------------------------------------------------------------

TEST(OperatorPipeline, SetInputSizesToSeedWithSchemeFloor) {
  auto machine = test::test_machine(1);
  Frontier f;
  f.init(machine.device(0), AllocationScheme::kJustEnough, 100000, 1000000);
  const VertexT seed[] = {5, 6, 7};
  f.set_input(seed);
  EXPECT_EQ(f.input_size(), 3u);
  ASSERT_EQ(f.input().size(), 3u);
  EXPECT_EQ(f.input()[0], 5u);
  // Seeding a few vertices stays within the scheme's initial capacity:
  // no reallocation.
  EXPECT_EQ(f.realloc_count(), 0u);

  // Re-seeding small after a large frontier grew the queue must not
  // leave stale size semantics behind.
  std::vector<VertexT> big(50000);
  for (VertexT v = 0; v < 50000; ++v) big[v] = v;
  f.set_input(big);
  EXPECT_EQ(f.input_size(), 50000u);
  const VertexT again[] = {9};
  f.set_input(again);
  EXPECT_EQ(f.input_size(), 1u);
  ASSERT_EQ(f.input().size(), 1u);
  EXPECT_EQ(f.input()[0], 9u);
}

TEST(OperatorPipeline, MutableOutputWritesThrough) {
  auto machine = test::test_machine(1);
  Frontier f;
  f.init(machine.device(0), AllocationScheme::kPreallocFusion, 100, 1000);
  VertexT* out = f.request_output(3);
  out[0] = 1;
  out[1] = 2;
  out[2] = 3;
  f.commit_output(3);
  f.mutable_output()[1] = 42;
  const auto view = f.output();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[1], 42u);
}

TEST(OperatorPipeline, SplitOutputCompactsAndRoutes) {
  auto machine = test::test_machine(1);
  Frontier f;
  f.init(machine.device(0), AllocationScheme::kPreallocFusion, 100, 1000);
  VertexT* out = f.request_output(5);
  const VertexT vals[] = {10, 3, 8, 1, 6};
  std::copy(vals, vals + 5, out);
  f.commit_output(5);
  std::vector<VertexT> routed;
  const SizeT kept = f.split_output(
      [](VertexT v) { return v < 7; },
      [&](VertexT v) { routed.push_back(v); });
  EXPECT_EQ(kept, 3u);
  EXPECT_EQ(f.output_size(), 3u);
  const auto view = f.output();
  EXPECT_EQ(view[0], 3u);
  EXPECT_EQ(view[1], 1u);
  EXPECT_EQ(view[2], 6u);
  EXPECT_EQ(routed, (std::vector<VertexT>{10, 8}));
}

}  // namespace
}  // namespace mgg
