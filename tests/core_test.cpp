// Unit tests for the core framework: frontier allocation schemes,
// operators, the communication bus, and enactor-level behaviors.
#include <gtest/gtest.h>

#include "core/comm.hpp"
#include "core/frontier.hpp"
#include "core/operators.hpp"
#include "graph/generators.hpp"
#include "primitives/bfs.hpp"
#include "primitives/sssp.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

using core::CommStrategy;
using core::Frontier;
using core::Message;
using vgpu::AllocationScheme;

struct OpEnv {
  explicit OpEnv(const graph::Graph& graph,
                 AllocationScheme scheme = AllocationScheme::kPreallocFusion)
      : machine(vgpu::Machine::create("k40", 1)), g(graph) {
    frontier.init(machine.device(0), scheme, g.num_vertices, g.num_edges);
    dedup.resize(g.num_vertices);
    temp.set_allocator(&machine.device(0).memory());
    temp_edges.set_allocator(&machine.device(0).memory());
    ctx = core::OpContext{&machine.device(0), &g,          &frontier,
                          &temp,              &temp_edges, &dedup,
                          scheme};
  }
  vgpu::Machine machine;
  graph::Graph g;
  Frontier frontier;
  util::AtomicBitset dedup;
  util::Array1D<VertexT> temp{"advance_temp"};
  util::Array1D<SizeT> temp_edges{"advance_temp_edges"};
  core::OpContext ctx;
};

graph::Graph star_graph(VertexT leaves) {
  graph::GraphCoo coo;
  coo.num_vertices = leaves + 1;
  for (VertexT v = 1; v <= leaves; ++v) coo.add_edge(0, v);
  return graph::build_undirected(std::move(coo));
}

TEST(Frontier, SchemeInitialCapacities) {
  auto machine = test::test_machine(1);
  const SizeT v = 1000, e = 16000;
  Frontier just_enough, fixed, max;
  just_enough.init(machine.device(0), AllocationScheme::kJustEnough, v, e);
  fixed.init(machine.device(0), AllocationScheme::kFixedPrealloc, v, e);
  max.init(machine.device(0), AllocationScheme::kMax, v, e);
  // Output-queue capacity ordering mirrors Fig. 3.
  Frontier* fronts[] = {&just_enough, &fixed, &max};
  SizeT caps[3];
  for (int i = 0; i < 3; ++i) {
    fronts[i]->request_output(1);
    caps[i] = 1;  // request_output(1) never grows beyond initial
  }
  (void)caps;
  // Verify through device memory accounting instead: 2 queues each.
  // just-enough starts near v/16, fixed near 1.25v, max near e.
  EXPECT_LT(machine.device(0).memory().current_bytes(),
            2 * (e + v) * sizeof(VertexT) * 3);
}

TEST(Frontier, JustEnoughGrowsOnDemandAndCounts) {
  auto machine = test::test_machine(1);
  Frontier f;
  f.init(machine.device(0), AllocationScheme::kJustEnough, 100000, 1000000);
  VertexT* out = f.request_output(50000);  // beyond the small estimate
  ASSERT_NE(out, nullptr);
  out[0] = 7;
  f.commit_output(1);
  EXPECT_GE(f.realloc_count(), 1u);
}

TEST(Frontier, SwapMakesOutputTheInput) {
  auto machine = test::test_machine(1);
  Frontier f;
  f.init(machine.device(0), AllocationScheme::kPreallocFusion, 100, 1000);
  VertexT* out = f.request_output(3);
  out[0] = 5;
  out[1] = 6;
  out[2] = 7;
  f.commit_output(3);
  f.swap();
  const auto in = f.input();
  ASSERT_EQ(in.size(), 3u);
  EXPECT_EQ(in[0], 5u);
  EXPECT_EQ(in[2], 7u);
  EXPECT_EQ(f.output_size(), 0u);
}

TEST(Frontier, AppendInputGrows) {
  auto machine = test::test_machine(1);
  Frontier f;
  f.init(machine.device(0), AllocationScheme::kJustEnough, 100000, 100000);
  for (VertexT v = 0; v < 10000; ++v) f.append_input(v);
  EXPECT_EQ(f.input_size(), 10000u);
  EXPECT_EQ(f.input()[9999], 9999u);
}

TEST(Operators, AdvanceEmitsNeighborsOnce) {
  const auto g = star_graph(8);
  OpEnv env(g);
  const VertexT seed[] = {0};
  env.frontier.set_input(seed);
  const SizeT produced = core::advance_filter(
      env.ctx, [](VertexT, VertexT, SizeT) { return true; });
  EXPECT_EQ(produced, 8u);  // all leaves, deduplicated
}

TEST(Operators, DedupCollapsesMultiplePaths) {
  // Triangle: advancing from {0,1} reaches 2 via two edges -> once.
  graph::GraphCoo coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 1);
  coo.add_edge(1, 2);
  coo.add_edge(0, 2);
  const auto g = graph::build_undirected(std::move(coo));
  OpEnv env(g);
  const VertexT seed[] = {0, 1};
  env.frontier.set_input(seed);
  std::vector<int> hits(3, 0);
  core::advance_filter(env.ctx, [&](VertexT, VertexT dst, SizeT) {
    return dst == 2 && ++hits[2];
  });
  EXPECT_EQ(env.frontier.output_size(), 1u);
  EXPECT_EQ(hits[2], 2);  // functor ran per edge; emission deduped
}

TEST(Operators, FusedAndSplitPipelinesAgree) {
  const auto g = test::small_rmat(7, 4);
  std::vector<VertexT> all;
  for (VertexT v = 0; v < g.num_vertices; ++v) all.push_back(v);

  auto run = [&](AllocationScheme scheme) {
    OpEnv env(g, scheme);
    env.frontier.set_input(all);
    std::vector<char> visited(g.num_vertices, 0);
    core::advance_filter(env.ctx, [&](VertexT, VertexT dst, SizeT) {
      if (visited[dst]) return false;
      visited[dst] = 1;
      return true;
    });
    auto out = env.frontier.output();
    std::vector<VertexT> sorted(out.begin(), out.end());
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  };
  EXPECT_EQ(run(AllocationScheme::kPreallocFusion),
            run(AllocationScheme::kMax));
  EXPECT_EQ(run(AllocationScheme::kJustEnough),
            run(AllocationScheme::kFixedPrealloc));
}

TEST(Operators, FusedChargesFewerLaunches) {
  const auto g = test::small_rmat(7, 4);
  std::vector<VertexT> all;
  for (VertexT v = 0; v < g.num_vertices; ++v) all.push_back(v);

  auto launches = [&](AllocationScheme scheme) {
    OpEnv env(g, scheme);
    env.frontier.set_input(all);
    core::advance_filter(env.ctx,
                         [](VertexT, VertexT, SizeT) { return false; });
    return env.machine.device(0).harvest_iteration().launches;
  };
  EXPECT_LT(launches(AllocationScheme::kPreallocFusion),
            launches(AllocationScheme::kMax));
}

TEST(Operators, PullStopsAtFirstParent) {
  const auto g = star_graph(16);
  OpEnv env(g);
  std::vector<VertexT> candidates;
  for (VertexT v = 1; v <= 16; ++v) candidates.push_back(v);
  const SizeT produced = core::advance_pull(
      env.ctx, candidates,
      [](VertexT, VertexT parent, SizeT) { return parent == 0; });
  EXPECT_EQ(produced, 16u);
  // Each leaf has exactly one edge, scanned once: edge work == 16.
  const auto counters = env.machine.device(0).harvest_iteration();
  EXPECT_EQ(counters.edges, 16u);
}

TEST(Operators, PullEdgeSkippingChargesLess) {
  // Center in frontier; leaves each have degree 1; compare against a
  // push advance from all leaves which touches the same 16 edges plus
  // the center's 16.
  const auto g = test::small_rmat(7, 8);
  OpEnv env(g);
  std::vector<VertexT> all;
  for (VertexT v = 0; v < g.num_vertices; ++v) all.push_back(v);
  // Pull with an always-true parent test scans exactly 1 edge per
  // candidate with degree > 0.
  core::advance_pull(env.ctx, all,
                     [](VertexT, VertexT, SizeT) { return true; });
  const auto counters = env.machine.device(0).harvest_iteration();
  EXPECT_LE(counters.edges, all.size());
  EXPECT_LT(counters.edges, g.num_edges / 4);
}

TEST(Operators, FilterCompacts) {
  const auto g = star_graph(4);
  OpEnv env(g);
  const VertexT input[] = {0, 1, 2, 3, 4};
  env.frontier.set_input(input);
  const SizeT produced =
      core::filter(env.ctx, [](VertexT v) { return v % 2 == 0; });
  EXPECT_EQ(produced, 3u);  // 0, 2, 4
  const auto out = env.frontier.output();
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 2u);
  EXPECT_EQ(out[2], 4u);
}

TEST(Operators, ComputeVisitsAll) {
  const auto g = star_graph(4);
  OpEnv env(g);
  const VertexT input[] = {1, 2, 3};
  int sum = 0;
  core::compute(env.ctx, input, [&](VertexT v) { sum += v; });
  EXPECT_EQ(sum, 6);
}

TEST(CommBus, DeliversToInbox) {
  auto machine = test::test_machine(2);
  core::CommBus bus(machine);
  Message msg = bus.acquire();
  msg.set_layout(0, 1, 3);
  msg.vertices = {1, 2, 3};
  const auto values = msg.value_slot(0);
  values[0] = 1.0f;
  values[1] = 2.0f;
  values[2] = 3.0f;
  bus.push(0, 1, std::move(msg));
  const auto& received = bus.drain_from(1, 0);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].src_gpu, 0);
  EXPECT_EQ(received[0].vertices.size(), 3u);
  EXPECT_FLOAT_EQ(received[0].value_slot(0)[2], 3.0f);
  bus.release_drained(1);
  EXPECT_TRUE(bus.drain_from(1, 0).empty());  // drained
}

TEST(CommBus, EmptyMessagesAreDropped) {
  auto machine = test::test_machine(2);
  core::CommBus bus(machine);
  bus.push(0, 1, Message{});
  EXPECT_TRUE(bus.drain_from(1, 0).empty());
}

TEST(CommBus, ChargesSenderCommCost) {
  auto machine = test::test_machine(2);
  core::CommBus bus(machine);
  Message msg;
  msg.vertices.assign(1000, 7);
  bus.push(0, 1, std::move(msg));
  const auto counters = machine.device(0).harvest_iteration();
  EXPECT_GT(counters.comm_s, 0.0);
  EXPECT_EQ(counters.items_out, 1000u);
  EXPECT_EQ(counters.bytes_out, 1000 * sizeof(VertexT));
  EXPECT_EQ(machine.interconnect().total_messages(), 1u);
}

TEST(CommBus, SelfPushRejected) {
  auto machine = test::test_machine(2);
  core::CommBus bus(machine);
  Message msg;
  msg.vertices = {1};
  EXPECT_THROW(bus.push(0, 0, std::move(msg)), Error);
}

TEST(Message, PayloadBytes) {
  Message msg;
  msg.set_layout(1, 1, 2);
  msg.vertices = {1, 2};
  const auto va = msg.vertex_slot(0);
  va[0] = 3;
  va[1] = 4;
  const auto vv = msg.value_slot(0);
  vv[0] = 0.5f;
  vv[1] = 0.25f;
  EXPECT_EQ(msg.payload_bytes(),
            2 * sizeof(VertexT) + 2 * sizeof(VertexT) + 2 * sizeof(ValueT));
}

TEST(Message, FlatSlotLayoutIsSlotMajor) {
  Message msg;
  msg.set_layout(2, 1, 3);
  EXPECT_EQ(msg.vertex_assoc.size(), 6u);
  EXPECT_EQ(msg.value_assoc.size(), 3u);
  // Slot a of k associates occupies [a*n, (a+1)*n).
  msg.vertex_slot(0)[1] = 41;
  msg.vertex_slot(1)[1] = 42;
  EXPECT_EQ(msg.vertex_assoc[1], 41);
  EXPECT_EQ(msg.vertex_assoc[4], 42);
}

TEST(Message, RecycleKeepsCapacity) {
  Message msg;
  msg.set_layout(1, 1, 100);
  const auto vcap = msg.vertices.capacity();
  const auto acap = msg.vertex_assoc.capacity();
  msg.recycle();
  EXPECT_TRUE(msg.empty());
  EXPECT_EQ(msg.vertex_slots, 0);
  EXPECT_EQ(msg.vertices.capacity(), vcap);
  EXPECT_EQ(msg.vertex_assoc.capacity(), acap);
}

TEST(CommBus, PoolRecyclesDrainedMessages) {
  auto machine = test::test_machine(2);
  core::CommBus bus(machine);
  EXPECT_EQ(bus.pool_size(), 0u);
  Message msg = bus.acquire();
  msg.set_layout(0, 0, 4);
  msg.vertices = {1, 2, 3, 4};
  const VertexT* storage = msg.vertices.data();
  bus.push(0, 1, std::move(msg));
  {
    const auto& received = bus.drain_from(1, 0);
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].vertices.data(), storage);  // no copy en route
  }
  bus.release_drained(1);
  EXPECT_EQ(bus.pool_size(), 1u);
  // The recycled message hands back the same buffer, emptied.
  Message again = bus.acquire();
  EXPECT_EQ(bus.pool_size(), 0u);
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(again.vertices.capacity() >= 4u, true);
  EXPECT_EQ(again.vertices.data(), storage);
  bus.release(std::move(again));
  EXPECT_EQ(bus.pool_size(), 1u);
}

TEST(CommBus, DrainedBatchStableUntilNextDrain) {
  auto machine = test::test_machine(3);
  core::CommBus bus(machine);
  for (int src : {0, 2}) {
    Message msg = bus.acquire();
    msg.set_layout(0, 0, 1);
    msg.vertices[0] = static_cast<VertexT>(src);
    bus.push(src, 1, std::move(msg));
  }
  for (int src : {0, 2}) {
    auto& batch = bus.drain_from(1, src);
    ASSERT_EQ(batch.size(), 1u);
    // Empty messages pushed elsewhere don't disturb receiver 1's batch.
    bus.push(0, 2, bus.acquire());
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].vertices[0], static_cast<VertexT>(src));
    bus.release_drained(1);
  }
  EXPECT_GE(bus.pool_size(), 2u);
}

// The broadcast strategy must carry vertex AND value associates
// faithfully: SSSP with predecessor marking sends one of each kind per
// frontier vertex. Run on 3 GPUs under broadcast + duplicate-all and
// check against a single-GPU reference.
TEST(Enactor, BroadcastCarriesVertexAndValueAssociates) {
  const auto g = test::small_weighted_rmat(8, 8);
  const VertexT src = test::first_connected_vertex(g);

  auto ref_machine = test::test_machine(1);
  auto ref_cfg = test::config_for(1);
  ref_cfg.mark_predecessors = true;
  const auto reference = prim::run_sssp(g, src, ref_machine, ref_cfg);

  auto machine = test::test_machine(3);
  auto cfg = test::config_for(3);
  cfg.mark_predecessors = true;
  cfg.comm = CommStrategy::kBroadcast;
  cfg.duplication = part::Duplication::kAll;
  const auto result = prim::run_sssp(g, src, machine, cfg);

  ASSERT_EQ(result.dist.size(), reference.dist.size());
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    EXPECT_FLOAT_EQ(result.dist[v], reference.dist[v]) << "vertex " << v;
  }
  // Predecessors may differ between runs on ties, but each must close a
  // tight edge: dist[pred] + w(pred, v) == dist[v].
  ASSERT_EQ(result.preds.size(), g.num_vertices);
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    if (v == src || result.preds[v] == kInvalidVertex) continue;
    const VertexT p = result.preds[v];
    const auto [begin, end] = g.edge_range(p);
    bool tight = false;
    for (SizeT e = begin; e < end; ++e) {
      if (g.col_indices[e] == v &&
          result.dist[p] + g.edge_values[e] == result.dist[v]) {
        tight = true;
        break;
      }
    }
    EXPECT_TRUE(tight) << "pred " << p << " -> " << v;
  }
}

TEST(Problem, BroadcastRequiresDuplicateAll) {
  const auto g = test::small_rmat(6, 4);
  auto machine = test::test_machine(2);
  core::Config cfg;
  cfg.num_gpus = 2;
  cfg.comm = CommStrategy::kBroadcast;
  cfg.duplication = part::Duplication::kOneHop;
  prim::BfsProblem problem;
  EXPECT_THROW(problem.init(g, machine, cfg), Error);
}

TEST(Problem, ChargesSubgraphMemory) {
  const auto g = test::small_rmat();
  auto machine = test::test_machine(2);
  core::Config cfg;
  cfg.num_gpus = 2;
  {
    prim::BfsProblem problem;
    problem.init(g, machine, cfg);
    EXPECT_GT(machine.device(0).memory().current_bytes(),
              problem.sub(0).csr.storage_bytes());
  }
  // Problem destruction releases the charges and the label arrays.
  EXPECT_EQ(machine.device(0).memory().current_bytes(), 0u);
}

TEST(Enactor, RepeatedEnactsAreIndependent) {
  // The persistent-thread protocol must support many runs (BC runs one
  // per source); results must not leak between runs.
  const auto g = test::small_rmat();
  auto machine = test::test_machine(3);
  core::Config cfg;
  cfg.num_gpus = 3;
  prim::BfsProblem problem;
  problem.init(g, machine, cfg);
  prim::BfsEnactor enactor(problem);

  const VertexT src = test::first_connected_vertex(g);
  enactor.reset(src);
  const auto first = enactor.enact();
  enactor.reset(src);
  const auto second = enactor.enact();
  EXPECT_EQ(first.iterations, second.iterations);
  EXPECT_EQ(first.total_edges, second.total_edges);
  EXPECT_NEAR(first.modeled_total_s(), second.modeled_total_s(), 1e-12);
}

TEST(Enactor, IterationRecordsTraceTheRun) {
  // On a chain, every BFS superstep has exactly one frontier vertex
  // and one edge of work; the per-iteration records must show it.
  const auto g = graph::build_undirected(graph::make_chain(32));
  auto machine = test::test_machine(1);
  core::Config cfg;
  cfg.num_gpus = 1;
  prim::BfsProblem problem;
  problem.init(g, machine, cfg);
  prim::BfsEnactor enactor(problem);
  enactor.reset(0);
  const auto stats = enactor.enact();
  const auto& records = enactor.iteration_records();
  ASSERT_EQ(records.size(), stats.iterations);
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    EXPECT_EQ(records[i].iteration, i);
    EXPECT_EQ(records[i].frontier_total, 1u) << "iteration " << i;
    EXPECT_LE(records[i].edges, 2u) << "iteration " << i;
    EXPECT_DOUBLE_EQ(records[i].gpu_imbalance, 1.0);
  }
  // The trace's time components sum to the run's modeled time.
  double total = 0;
  for (const auto& r : records) {
    total += r.compute_s + r.comm_s + r.overhead_s;
  }
  EXPECT_NEAR(total, stats.modeled_total_s(), 1e-9);
}

TEST(Enactor, RecordsShowMultiGpuImbalance) {
  // A star graph partitioned by chunk puts the hub's edges on one GPU:
  // the per-iteration imbalance must reflect the straggler.
  graph::GraphCoo coo;
  coo.num_vertices = 64;
  for (VertexT v = 1; v < 64; ++v) coo.add_edge(0, v);
  const auto g = graph::build_undirected(std::move(coo));
  auto machine = test::test_machine(2);
  // Amplify edge work so launch overheads don't dilute the skew.
  machine.set_workload_scale(4096);
  core::Config cfg;
  cfg.num_gpus = 2;
  cfg.partitioner = "chunk";
  prim::BfsProblem problem;
  problem.init(g, machine, cfg);
  prim::BfsEnactor enactor(problem);
  enactor.reset(0);
  enactor.enact();
  const auto& records = enactor.iteration_records();
  ASSERT_FALSE(records.empty());
  // Iteration 0 expands only the hub, hosted on GPU 0: max/mean ~ 2.
  EXPECT_GT(records[0].gpu_imbalance, 1.5);
}

TEST(Enactor, MaxIterationsStopsRunaway) {
  const auto g = graph::build_undirected(graph::make_chain(128));
  auto machine = test::test_machine(2);
  core::Config cfg;
  cfg.num_gpus = 2;
  cfg.max_iterations = 5;
  prim::BfsProblem problem;
  problem.init(g, machine, cfg);
  prim::BfsEnactor enactor(problem);
  enactor.reset(0);
  const auto stats = enactor.enact();
  EXPECT_EQ(stats.iterations, 5u);
}

}  // namespace
}  // namespace mgg
