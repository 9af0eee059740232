// Differential tests for the event-driven superstep pipeline
// (Config::sync_mode == SyncMode::kEventPipeline).
//
// The pipeline replaces barrier A with per-(sender, receiver) event
// handshakes and charges the overlap-aware cost model, but it is
// required to be *observationally identical* to the barrier schedule
// everywhere else: results, W (edges/vertices/launches), and H
// (comm items/bytes, combine items) must match bit for bit at every
// GPU count, for every primitive, under both comm strategies, and
// regardless of thread timing. These tests pin that contract, and
// stress the handshake table itself (ordering, abort, injected stalls).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <filesystem>
#include <initializer_list>
#include <iterator>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "config_space.hpp"
#include "core/comm.hpp"
#include "core/enactor.hpp"
#include "core/handshake.hpp"
#include "core/problem.hpp"
#include "primitives/bfs.hpp"
#include "test_support.hpp"
#include "util/random.hpp"
#include "vgpu/cost.hpp"
#include "vgpu/fault.hpp"

namespace mgg {
namespace {

/// Threads of this process, or -1 where /proc/self/task is missing.
std::ptrdiff_t thread_count() {
  const std::filesystem::path tasks("/proc/self/task");
  if (!std::filesystem::exists(tasks)) return -1;
  return std::distance(std::filesystem::directory_iterator(tasks),
                       std::filesystem::directory_iterator{});
}

core::Config pipeline_config(int gpus) {
  core::Config cfg = test::config_for(gpus);
  cfg.sync_mode = core::SyncMode::kEventPipeline;
  return cfg;
}

/// The integer counters that define W and H; modeled *times* are
/// allowed to differ between schedules (that is the point), counters
/// are not.
void expect_same_counters(const vgpu::RunStats& bsp,
                          const vgpu::RunStats& pipe,
                          const std::string& label) {
  EXPECT_EQ(bsp.iterations, pipe.iterations) << label;
  EXPECT_EQ(bsp.total_edges, pipe.total_edges) << label;
  EXPECT_EQ(bsp.total_vertices, pipe.total_vertices) << label;
  EXPECT_EQ(bsp.total_launches, pipe.total_launches) << label;
  EXPECT_EQ(bsp.total_comm_items, pipe.total_comm_items) << label;
  EXPECT_EQ(bsp.total_comm_bytes, pipe.total_comm_bytes) << label;
  EXPECT_EQ(bsp.total_combine_items, pipe.total_combine_items) << label;
}

// Schedule bit-identity: each pipeline draw reruns under BSP and must
// keep results, W/H counters and link bytes (tests/config_space.hpp).
void expect_pipeline_holds(const graph::Graph& g, test::space::Draw d,
                           std::initializer_list<int> widths) {
  d.cfg.sync_mode = core::SyncMode::kEventPipeline;
  for (const int gpus : widths) {
    d.gpus = gpus;
    test::space::expect_holds(g, d);
  }
}

TEST(SyncPipeline, BfsBitIdenticalAcrossModesAtEveryWidth) {
  expect_pipeline_holds(test::small_rmat(),
                        {.cfg = {.mark_predecessors = true}},
                        {1, 2, 3, 4, 6, 8});
}

TEST(SyncPipeline, SsspBitIdenticalAcrossModes) {
  expect_pipeline_holds(test::small_weighted_rmat(),
                        {.prim = test::space::Prim::kSssp}, {1, 3, 8});
}

TEST(SyncPipeline, PagerankBitIdenticalAcrossModes) {
  // PR's communicate override routes acc values itself; float ranks
  // make any combine reorder visible.
  expect_pipeline_holds(test::small_rmat(), {.prim = test::space::Prim::kPr},
                        {1, 4, 6});
}

TEST(SyncPipeline, BcBitIdenticalAcrossModes) {
  // BC pushes two tagged messages per peer per superstep, exercising
  // the post-communicate handshake backfill and drain_from's tag sort.
  expect_pipeline_holds(test::small_rmat(7, 6),
                        {.prim = test::space::Prim::kBc}, {2, 5});
}

TEST(SyncPipeline, BroadcastStrategyBitIdenticalAcrossModes) {
  expect_pipeline_holds(test::small_rmat(),
                        {.cfg = {.comm = core::CommStrategy::kBroadcast}},
                        {4});
}

TEST(SyncPipeline, OverheadChargesOneBarrierAndOverlapHidesComm) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  auto m_bsp = test::test_machine(4);
  auto m_pipe = test::test_machine(4);
  const auto bsp = prim::run_bfs(g, src, m_bsp, test::config_for(4));
  const auto pipe = prim::run_bfs(g, src, m_pipe, pipeline_config(4));

  // The two-barrier charge is the historical l(n); the pipeline keeps
  // only the convergence barrier.
  EXPECT_DOUBLE_EQ(vgpu::sync_overhead_seconds(4, 2),
                   vgpu::sync_overhead_seconds(4));
  EXPECT_DOUBLE_EQ(
      bsp.stats.modeled_overhead_s,
      static_cast<double>(bsp.stats.iterations) *
          vgpu::sync_overhead_seconds(4, 2));
  EXPECT_DOUBLE_EQ(
      pipe.stats.modeled_overhead_s,
      static_cast<double>(pipe.stats.iterations) *
          vgpu::sync_overhead_seconds(4, 1));

  // Per-peer chunked pushes make transfers ready mid-compute, so a
  // multi-GPU BFS must hide a positive amount of comm under compute —
  // never more than the comm it actually did.
  EXPECT_GT(pipe.stats.modeled_overlap_hidden_s, 0.0);
  EXPECT_LE(pipe.stats.modeled_overlap_hidden_s, pipe.stats.modeled_comm_s);
  EXPECT_LT(pipe.stats.modeled_total_s(), bsp.stats.modeled_total_s());
}

TEST(SyncPipeline, IterationRecordsDecomposeInBothModes) {
  const auto g = test::small_rmat();
  auto machine = test::test_machine(4);
  for (const core::SyncMode mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    core::Config cfg = test::config_for(4);
    cfg.sync_mode = mode;
    prim::BfsProblem problem;
    problem.init(g, machine, cfg);
    prim::BfsEnactor enactor(problem);
    enactor.reset(test::first_connected_vertex(g));
    const auto stats = enactor.enact();
    const auto records = enactor.iteration_records();
    ASSERT_EQ(records.size(), stats.iterations) << to_string(mode);
    double hidden_sum = 0;
    for (const auto& r : records) {
      EXPECT_GE(r.comm_hidden_s, 0.0) << to_string(mode);
      EXPECT_LE(r.comm_hidden_s, r.comm_s + 1e-15) << to_string(mode);
      EXPECT_GE(r.comm_hidden_frac, 0.0) << to_string(mode);
      EXPECT_LE(r.comm_hidden_frac, 1.0) << to_string(mode);
      if (mode == core::SyncMode::kBspBarrier) {
        EXPECT_EQ(r.comm_hidden_s, 0.0);
        EXPECT_EQ(r.comm_hidden_frac, 0.0);
      }
      hidden_sum += r.comm_hidden_s;
    }
    EXPECT_DOUBLE_EQ(hidden_sum, stats.modeled_overlap_hidden_s)
        << to_string(mode);
  }
}

TEST(SyncPipeline, HeterogeneousSyncScaleUsesSlowestDevice) {
  // A barrier completes when its slowest participant arrives: with one
  // device's sync_scale raised, the whole machine's l(n) must scale by
  // the max across devices — not device 0's value.
  const auto g = test::small_rmat();
  auto machine = test::test_machine(3);
  machine.device(2).set_sync_scale(4.0);
  const auto result = prim::run_bfs(g, test::first_connected_vertex(g),
                                    machine, test::config_for(3));
  EXPECT_DOUBLE_EQ(
      result.stats.modeled_overhead_s,
      static_cast<double>(result.stats.iterations) *
          vgpu::sync_overhead_seconds(3) * 4.0);
}

// A BFS whose per-GPU compute is preceded by a randomized, run-varying
// sleep: the handshake protocol must deliver identical counters and
// results no matter which sender publishes first.
class JitteredBfsEnactor : public prim::BfsEnactor {
 public:
  JitteredBfsEnactor(prim::BfsProblem& problem, std::uint64_t seed)
      : prim::BfsEnactor(problem), seed_(seed) {}

 protected:
  void iteration_core(Slice& s) override {
    std::mt19937_64 rng(seed_ ^ (static_cast<std::uint64_t>(s.gpu) << 32) ^
                        iteration());
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng() % 300));
    prim::BfsEnactor::iteration_core(s);
  }

 private:
  std::uint64_t seed_;
};

TEST(SyncPipeline, DeterministicUnderRandomizedComputeDelays) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  auto machine = test::test_machine(4);
  const auto reference = prim::run_bfs(g, src, machine, test::config_for(4));

  for (const std::uint64_t seed : {1ull, 99ull}) {
    auto m = test::test_machine(4);
    prim::BfsProblem problem;
    problem.init(g, m, pipeline_config(4));
    JitteredBfsEnactor enactor(problem, seed);
    enactor.reset(src);
    const auto stats = enactor.enact();
    expect_same_counters(reference.stats, stats,
                         "seed=" + std::to_string(seed));
    // Check every vertex's authoritative (owner-hosted) label against
    // the reference gather.
    for (VertexT v = 0; v < g.num_vertices; ++v) {
      const auto [gpu, lv] = problem.locate(v);
      EXPECT_EQ(problem.data(gpu).labels[lv], reference.labels[v])
          << "vertex " << v;
    }
  }
}

TEST(SyncPipeline, ErrorInOneWorkerSurfacesWithoutDeadlock) {
  // Pipeline receivers block on per-sender events, not barriers; a
  // worker that dies before publishing must not strand them. The
  // enactor aborts the handshake table on the error path and stays
  // usable for the next run (which re-arms the table).
  class FaultyProblem : public core::ProblemBase {
   protected:
    void init_data_slice(int) override {}
  };
  class FaultyEnactor : public core::EnactorBase {
   public:
    FaultyEnactor(FaultyProblem& problem, int faulty_gpu,
                  std::uint64_t faulty_iteration)
        : core::EnactorBase(problem),
          faulty_gpu_(faulty_gpu),
          faulty_iteration_(faulty_iteration) {}
    void disarm() { armed_ = false; }

   protected:
    void iteration_core(Slice& s) override {
      if (armed_ && s.gpu == faulty_gpu_ &&
          iteration() == faulty_iteration_) {
        throw Error(Status::kInternal, "injected pipeline fault");
      }
      const auto input = s.frontier.input();
      VertexT* out =
          s.frontier.request_output(static_cast<SizeT>(input.size()));
      for (std::size_t i = 0; i < input.size(); ++i) out[i] = input[i];
      s.frontier.commit_output(static_cast<SizeT>(input.size()));
    }
    void expand_incoming(Slice& s, const core::Message& msg) override {
      for (const VertexT v : msg.vertices) s.frontier.append_input(v);
    }

   private:
    int faulty_gpu_;
    std::uint64_t faulty_iteration_;
    bool armed_ = true;
  };

  const auto g = test::small_rmat(6, 4);
  auto machine = test::test_machine(3);
  core::Config cfg = pipeline_config(3);
  cfg.max_iterations = 40;
  FaultyProblem problem;
  problem.init(g, machine, cfg);
  FaultyEnactor enactor(problem, /*faulty_gpu=*/1, /*faulty_iteration=*/3);
  const VertexT seed[] = {0};
  enactor.seed_frontier(0, seed);
  try {
    enactor.enact();
    FAIL() << "expected injected fault";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected pipeline fault"),
              std::string::npos);
  }

  enactor.disarm();
  enactor.reset_frontiers();
  enactor.seed_frontier(0, seed);
  const auto stats = enactor.enact();
  EXPECT_EQ(stats.iterations, 40u);
}

TEST(SyncPipeline, StrictDrainProtocolRejectsUnreleasedBatch) {
  // Satellite guard: the combine loop must recycle each drained batch
  // (release_drained) before the next drain; the bus turns a violation
  // into a loud kInternal instead of silently recycling pooled buffers
  // out from under a live combine.
  auto machine = test::test_machine(2);
  core::CommBus bus(machine);

  auto send = [&] {
    core::Message msg = bus.acquire();
    msg.set_layout(0, 0, 1);
    msg.vertices[0] = 7;
    bus.push(0, 1, std::move(msg));
  };

  send();
  auto& batch = bus.drain_from(1, 0);
  ASSERT_EQ(batch.size(), 1u);
  send();
  try {
    bus.drain_from(1, 0);
    FAIL() << "expected strict-drain violation";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kInternal);
  }
  bus.release_drained(1);
  auto& per_sender = bus.drain_from(1, 0);
  ASSERT_EQ(per_sender.size(), 1u);
  EXPECT_EQ(per_sender[0].vertices[0], 7u);
  bus.release_drained(1);
}

// The handshake protocol under adversarial timing: n workers run many
// supersteps in lockstep (convergence barrier only, like the pipeline
// enactor), each sleeping a random amount before writing one mailbox
// cell per peer and publishing that peer's handshake, then taking every
// peer's handshake and reading its cell. The cells are deliberately
// unsynchronized apart from the handshake itself, so any hole in the
// publish/take happens-before chain shows up as a wrong value — and,
// under the TSan build this suite also runs in, as a data race.
TEST(SyncPipeline, HandshakeOrderingUnderRandomizedDelays) {
  constexpr int kGpus = 4;
  constexpr int kSupersteps = 150;
  core::HandshakeTable table(kGpus);

  // mailbox[src][dst]: the last value src wrote for dst.
  std::uint64_t mailbox[kGpus][kGpus] = {};
  std::atomic<std::uint64_t> verified{0};
  std::atomic<int> mismatches{0};
  std::barrier<> step_barrier(kGpus);

  auto worker = [&](int g) {
    util::Rng rng(1000 + g);
    for (std::uint64_t step = 0; step < kSupersteps; ++step) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.next_below(200)));
      for (int peer = 0; peer < kGpus; ++peer) {
        if (peer == g) continue;
        mailbox[g][peer] = step * 1000 + static_cast<std::uint64_t>(g);
        table.publish(g, peer, step);
      }
      for (int src = 0; src < kGpus; ++src) {
        if (src == g) continue;
        table.take(src, g, step);
        if (mailbox[src][g] !=
            step * 1000 + static_cast<std::uint64_t>(src)) {
          mismatches.fetch_add(1);
        }
        verified.fetch_add(1);
      }
      step_barrier.arrive_and_wait();
    }
  };
  std::vector<std::thread> threads;
  for (int g = 0; g < kGpus; ++g) threads.emplace_back(worker, g);
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(verified.load(),
            static_cast<std::uint64_t>(kGpus) * (kGpus - 1) * kSupersteps);
}

// abort() racing blocked takers: every take must return instead of
// deadlocking, no matter where in the superstep each taker was when
// the abort landed.
TEST(SyncPipeline, HandshakeAbortUnblocksAllTakers) {
  constexpr int kGpus = 4;
  core::HandshakeTable table(kGpus);
  std::atomic<int> returned{0};
  std::vector<std::thread> takers;
  for (int g = 1; g < kGpus; ++g) {
    takers.emplace_back([&, g] {
      // GPU 0 died before publishing superstep 5; these block.
      table.take(0, g, 5);
      returned.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  table.abort();
  for (auto& t : takers) t.join();
  EXPECT_EQ(returned.load(), kGpus - 1);
  // Late stragglers after the abort: publish is dropped, take returns
  // immediately.
  table.publish(1, 2, 7);
  table.take(3, 2, 9);
  // A reset re-arms the table for the next run.
  table.reset();
  EXPECT_FALSE(table.aborted());
}

// Injected-stall abort stressor: a fault injector swallows one
// handshake publish, stranding the receiver in take(); a control
// thread (standing in for another worker's error path) aborts the
// table, which must release the stalled waiter and let every worker
// finish.
TEST(SyncPipeline, HandshakeInjectedStallAbortReleasesBlockedWaiters) {
  constexpr int kGpus = 3;
  core::HandshakeTable table(kGpus);

  vgpu::FaultSpec drop;
  drop.kind = vgpu::FaultKind::kHandshakeDrop;
  drop.device = 0;  // the 0 -> 1 link's first publish is swallowed
  drop.peer = 1;
  drop.at_event = 0;
  drop.count = 1;
  vgpu::FaultPlan plan;
  plan.specs.push_back(drop);
  vgpu::FaultInjector injector(plan, kGpus);
  table.set_fault_injector(&injector);

  std::atomic<int> released{0};
  std::vector<std::thread> workers;
  for (int g = 0; g < kGpus; ++g) {
    workers.emplace_back([&, g] {
      for (int peer = 0; peer < kGpus; ++peer) {
        if (peer != g) table.publish(g, peer, 0);
      }
      for (int src = 0; src < kGpus; ++src) {
        if (src != g) table.take(src, g, 0);
      }
      released.fetch_add(1);
    });
  }
  // GPU 1 is stalled in take(0, 1, 0) — its sender's publish was
  // dropped. After a grace period the control thread aborts.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(injector.injected_count(), 1u);
  table.abort();
  for (auto& t : workers) t.join();
  EXPECT_EQ(released.load(), kGpus);
  table.set_fault_injector(nullptr);
  table.reset();
  EXPECT_FALSE(table.aborted());
}

// A bounded table turns a wait that outlives its deadline into a typed
// kTimedOut naming the stalled link; a published slot is taken at once
// and an aborted table still returns without waiting.
TEST(SyncPipeline, BoundedHandshakeTakeTimesOutNamingTheLink) {
  core::HandshakeTable table(3, 0.05);
  table.publish(2, 0, 0);
  table.take(2, 0, 0);
  try {
    table.take(0, 1, 0);
    FAIL() << "an unpublished handshake was taken";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kTimedOut) << e.what();
    EXPECT_NE(std::string(e.what()).find("gpu0 -> gpu1"), std::string::npos)
        << e.what();
  }
  table.abort();
  table.take(0, 1, 0);
}

// Arming Config::watchdog_deadline_s bounds the handshake wait inside
// take() itself, so it adds no thread to an enactment: the count taken
// from inside iteration_core of a warm enact() equals the count taken
// just before it.
TEST(SyncPipeline, BoundedHandshakeWaitSpawnsNoThread) {
  if (thread_count() < 0) GTEST_SKIP() << "no /proc/self/task here";
  class CountingBfsEnactor : public prim::BfsEnactor {
   public:
    using prim::BfsEnactor::BfsEnactor;
    std::atomic<bool> sample{false};
    std::atomic<std::ptrdiff_t> seen{-1};

   protected:
    void iteration_core(Slice& s) override {
      if (sample.load() && s.gpu == 0 && iteration() == 0) {
        seen.store(thread_count());
      }
      prim::BfsEnactor::iteration_core(s);
    }
  };

  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  auto machine = test::test_machine(2);
  core::Config cfg = pipeline_config(2);
  cfg.watchdog_deadline_s = 5;
  cfg.host_threads = 1;
  prim::BfsProblem problem;
  problem.init(g, machine, cfg);
  CountingBfsEnactor enactor(problem);
  enactor.reset(src);
  enactor.enact();  // warm-up: sizes the shared host pool
  enactor.reset(src);
  enactor.sample = true;
  const std::ptrdiff_t before = thread_count();
  enactor.enact();
  EXPECT_EQ(enactor.seen.load(), before);
}

}  // namespace
}  // namespace mgg
