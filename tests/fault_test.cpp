// Failure-injection tests: out-of-memory behavior, error propagation
// out of the multi-threaded enactor, and the deterministic
// fault-injection + recovery layer (grow-and-retry, comm retries,
// bounded handshake wait, degraded re-enact).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <functional>
#include <iterator>
#include <latch>
#include <memory>

#include "core/enactor.hpp"
#include "core/problem.hpp"
#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/cc.hpp"
#include "primitives/common.hpp"
#include "primitives/dobfs.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/sssp.hpp"
#include "test_support.hpp"
#include "util/random.hpp"
#include "vgpu/fault.hpp"

namespace mgg {
namespace {

vgpu::GpuModel tiny_gpu(std::size_t memory_bytes) {
  auto model = vgpu::GpuModel::k40();
  model.name = "TinyK40";
  model.memory_bytes = memory_bytes;
  return model;
}

TEST(Oom, ProblemInitFailsCleanlyWhenGraphDoesNotFit) {
  const auto g = test::small_rmat();  // CSR of a few tens of KB
  vgpu::Machine machine(tiny_gpu(2 << 10), 2);  // 2 KB device: too small
  core::Config cfg;
  cfg.num_gpus = 2;
  prim::BfsProblem problem;
  try {
    problem.init(g, machine, cfg);
    FAIL() << "expected out-of-memory";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kOutOfMemory);
  }
}

TEST(Oom, MaxSchemeNeedsMoreMemoryThanFused) {
  // A capacity that fits the fused scheme but not worst-case |E|
  // buffers: the paper's point that max allocation "artificially
  // limits the size of the subgraph we can place onto one GPU".
  const auto g = test::small_rmat(9, 16);  // ~300k edges
  const std::size_t csr_bytes = g.storage_bytes();
  const std::size_t budget = csr_bytes + csr_bytes / 2;

  {
    vgpu::Machine machine(tiny_gpu(budget), 1);
    core::Config cfg;
    cfg.num_gpus = 1;
    cfg.scheme = vgpu::AllocationScheme::kPreallocFusion;
    prim::BfsProblem problem;
    problem.init(g, machine, cfg);
    prim::BfsEnactor enactor(problem);  // frontier allocation succeeds
    enactor.reset(test::first_connected_vertex(g));
    EXPECT_NO_THROW(enactor.enact());
  }
  {
    vgpu::Machine machine(tiny_gpu(budget), 1);
    core::Config cfg;
    cfg.num_gpus = 1;
    cfg.scheme = vgpu::AllocationScheme::kMax;
    prim::BfsProblem problem;
    problem.init(g, machine, cfg);
    try {
      prim::BfsEnactor enactor(problem);  // |E|-sized buffers blow up
      FAIL() << "expected out-of-memory for max allocation";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::kOutOfMemory);
    }
  }
}

// A primitive whose core throws on a chosen GPU at a chosen iteration,
// to verify the enactor's multi-threaded error path: no deadlock, the
// exception resurfaces from enact(), and the enactor stays usable.
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

  void arm() { armed_ = true; }
  void disarm() { armed_ = false; }

 protected:
  void iteration_core(Slice& s) override {
    if (armed_ && s.gpu == faulty_gpu_ &&
        iteration() == faulty_iteration_) {
      throw Error(Status::kInternal, "injected kernel fault");
    }
    // Trivial non-converging core: re-emit the input frontier.
    const auto input = s.frontier.input();
    VertexT* out = s.frontier.request_output(
        static_cast<SizeT>(input.size()));
    for (std::size_t i = 0; i < input.size(); ++i) out[i] = input[i];
    s.frontier.commit_output(static_cast<SizeT>(input.size()));
  }
  void expand_incoming(Slice& s, const core::Message& msg) override {
    for (const VertexT v : msg.vertices) s.frontier.append_input(v);
  }

 private:
  int faulty_gpu_;
  std::uint64_t faulty_iteration_;
  bool armed_ = false;
};

TEST(FaultInjection, ExceptionInWorkerSurfacesFromEnact) {
  const auto g = test::small_rmat(6, 4);
  auto machine = test::test_machine(3);
  core::Config cfg;
  cfg.num_gpus = 3;
  cfg.max_iterations = 50;
  FaultyProblem problem;
  problem.init(g, machine, cfg);
  FaultyEnactor enactor(problem, /*faulty_gpu=*/1, /*faulty_iteration=*/3);

  const VertexT seed[] = {0};
  enactor.seed_frontier(0, seed);
  enactor.arm();
  try {
    enactor.enact();
    FAIL() << "expected injected fault";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected kernel fault"),
              std::string::npos);
  }

  // The enactor must remain usable: a clean run afterwards terminates
  // via max_iterations without error.
  enactor.disarm();
  enactor.reset_frontiers();
  enactor.seed_frontier(0, seed);
  const auto stats = enactor.enact();
  EXPECT_EQ(stats.iterations, 50u);
}

// A primitive whose *framework hooks* (converged / begin_iteration)
// throw. These run inside the BSP barrier's exclusive completion
// callback; an escaping exception there used to terminate the process
// (std::barrier completion is noexcept-terminating) with every worker
// stranded at the barrier. The enactor must instead convert it into
// the regular stop-with-error protocol.
class FaultyHooksEnactor : public core::EnactorBase {
 public:
  enum class Hook { kConverged, kBeginIteration };

  FaultyHooksEnactor(FaultyProblem& problem, Hook hook,
                     std::uint64_t faulty_iteration)
      : core::EnactorBase(problem),
        hook_(hook),
        faulty_iteration_(faulty_iteration) {}

  void arm() { armed_ = true; }
  void disarm() { armed_ = false; }

 protected:
  void iteration_core(Slice& s) override {
    const auto input = s.frontier.input();
    VertexT* out = s.frontier.request_output(
        static_cast<SizeT>(input.size()));
    for (std::size_t i = 0; i < input.size(); ++i) out[i] = input[i];
    s.frontier.commit_output(static_cast<SizeT>(input.size()));
  }
  void expand_incoming(Slice& s, const core::Message& msg) override {
    for (const VertexT v : msg.vertices) s.frontier.append_input(v);
  }
  bool converged(bool all_empty, std::uint64_t iteration) override {
    if (armed_ && hook_ == Hook::kConverged &&
        iteration >= faulty_iteration_) {
      throw Error(Status::kInternal, "injected converged fault");
    }
    return core::EnactorBase::converged(all_empty, iteration);
  }
  void begin_iteration(std::uint64_t iteration) override {
    if (armed_ && hook_ == Hook::kBeginIteration &&
        iteration >= faulty_iteration_ && iteration > 0) {
      throw Error(Status::kInternal, "injected begin_iteration fault");
    }
  }

 private:
  Hook hook_;
  std::uint64_t faulty_iteration_;
  bool armed_ = false;
};

TEST(FaultInjection, ThrowingConvergedHookSurfacesAndUnblocksWorkers) {
  const auto g = test::small_rmat(6, 4);
  auto machine = test::test_machine(3);
  core::Config cfg;
  cfg.num_gpus = 3;
  cfg.max_iterations = 50;
  FaultyProblem problem;
  problem.init(g, machine, cfg);
  FaultyHooksEnactor enactor(problem,
                             FaultyHooksEnactor::Hook::kConverged,
                             /*faulty_iteration=*/2);
  const VertexT seed[] = {0};
  enactor.seed_frontier(0, seed);
  enactor.arm();
  try {
    enactor.enact();
    FAIL() << "expected injected converged fault";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected converged fault"),
              std::string::npos);
  }
  // Every worker must have drained out of the loop: the enactor is
  // reusable for a clean run.
  enactor.disarm();
  enactor.reset_frontiers();
  enactor.seed_frontier(0, seed);
  const auto stats = enactor.enact();
  EXPECT_EQ(stats.iterations, 50u);
}

TEST(FaultInjection, ThrowingBeginIterationHookSurfaces) {
  const auto g = test::small_rmat(6, 4);
  auto machine = test::test_machine(2);
  core::Config cfg;
  cfg.num_gpus = 2;
  cfg.max_iterations = 50;
  FaultyProblem problem;
  problem.init(g, machine, cfg);
  FaultyHooksEnactor enactor(problem,
                             FaultyHooksEnactor::Hook::kBeginIteration,
                             /*faulty_iteration=*/3);
  const VertexT seed[] = {0};
  enactor.seed_frontier(1, seed);
  enactor.arm();
  EXPECT_THROW(enactor.enact(), Error);
  enactor.disarm();
  enactor.reset_frontiers();
  enactor.seed_frontier(1, seed);
  EXPECT_NO_THROW(enactor.enact());
}

// When several GPUs fault in the same superstep, enact() must rethrow
// deterministically (lowest GPU number wins), not whichever thread won
// the race to record its exception.
class MultiFaultEnactor : public core::EnactorBase {
 public:
  explicit MultiFaultEnactor(FaultyProblem& problem)
      : core::EnactorBase(problem) {}

 protected:
  void iteration_core(Slice& s) override {
    // Rendezvous before any worker throws: otherwise a fast first
    // fault lets the remaining workers skip their iteration via the
    // has_error() short-circuit, and the test would be asserting
    // scheduling luck instead of the rethrow-ordering guarantee.
    latch_.arrive_and_wait();
    throw Error(Status::kInternal,
                "injected fault on gpu " + std::to_string(s.gpu));
  }
  void expand_incoming(Slice&, const core::Message&) override {}

 private:
  std::latch latch_{4};
};

TEST(FaultInjection, ConcurrentFaultsRethrowLowestGpuFirst) {
  const auto g = test::small_rmat(6, 4);
  for (int round = 0; round < 20; ++round) {
    auto machine = test::test_machine(4);
    core::Config cfg;
    cfg.num_gpus = 4;
    FaultyProblem problem;
    problem.init(g, machine, cfg);
    MultiFaultEnactor enactor(problem);
    const VertexT seed[] = {0};
    enactor.seed_frontier(0, seed);
    try {
      enactor.enact();
      FAIL() << "expected injected fault";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("injected fault on gpu 0"),
                std::string::npos)
          << "round " << round << " surfaced: " << e.what();
    }
  }
}

TEST(FaultInjection, FaultOnAnyGpuAnyIteration) {
  // Sweep the injection point to shake out barrier-protocol deadlocks.
  const auto g = test::small_rmat(6, 4);
  for (int faulty_gpu = 0; faulty_gpu < 2; ++faulty_gpu) {
    for (std::uint64_t it : {0ull, 1ull, 4ull}) {
      auto machine = test::test_machine(2);
      core::Config cfg;
      cfg.num_gpus = 2;
      cfg.max_iterations = 50;
      FaultyProblem problem;
      problem.init(g, machine, cfg);
      FaultyEnactor enactor(problem, faulty_gpu, it);
      const VertexT seed[] = {0};
      enactor.seed_frontier(faulty_gpu, seed);
      enactor.arm();
      EXPECT_THROW(enactor.enact(), Error)
          << "gpu " << faulty_gpu << " iteration " << it;
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic mid-run OOM for every paper primitive under the
// just-enough scheme, via the FaultInjector: the run must fail with a
// clean typed kOutOfMemory, and the SAME enactor (whose CommBus went
// through reset() and, in pipeline mode, whose HandshakeTable went
// through abort()) must complete a second, fault-free-identical run.

/// Uniform handle over a problem+enactor pair so one harness can drive
/// all six primitives. build() wires everything against the given
/// machine; reset() re-arms for a run; signature() is a comparable
/// encoding of the gathered result.
struct PrimRunner {
  virtual ~PrimRunner() = default;
  virtual void reset() = 0;
  virtual vgpu::RunStats enact() = 0;
  virtual std::vector<double> signature() = 0;
};

template <typename Problem, typename Enactor>
struct RunnerImpl : PrimRunner {
  graph::Graph g;
  std::unique_ptr<Problem> problem = std::make_unique<Problem>();
  std::unique_ptr<Enactor> enactor;
  std::function<void(RunnerImpl&)> do_reset;
  std::function<std::vector<double>(RunnerImpl&)> do_signature;

  void reset() override { do_reset(*this); }
  vgpu::RunStats enact() override { return enactor->enact(); }
  std::vector<double> signature() override { return do_signature(*this); }
};

using RunnerFactory = std::function<std::unique_ptr<PrimRunner>(
    vgpu::Machine&, const core::Config&)>;

std::unique_ptr<PrimRunner> make_bfs_runner(vgpu::Machine& m,
                                            const core::Config& cfg) {
  auto r = std::make_unique<RunnerImpl<prim::BfsProblem, prim::BfsEnactor>>();
  r->g = test::small_rmat(10, 8);
  r->problem->init(r->g, m, cfg);
  r->enactor = std::make_unique<prim::BfsEnactor>(*r->problem);
  const VertexT src = test::first_connected_vertex(r->g);
  r->do_reset = [src](auto& self) { self.enactor->reset(src); };
  r->do_signature = [](auto& self) {
    const auto labels = prim::gather_vertex_values<VertexT>(
        self.problem->partitioned(), [&](int gpu, VertexT lv) {
          return self.problem->data(gpu).labels[lv];
        });
    return std::vector<double>(labels.begin(), labels.end());
  };
  return r;
}

std::unique_ptr<PrimRunner> make_dobfs_runner(vgpu::Machine& m,
                                              core::Config cfg) {
  cfg.duplication = part::Duplication::kAll;
  cfg.comm = core::CommStrategy::kBroadcast;
  auto r =
      std::make_unique<RunnerImpl<prim::DobfsProblem, prim::DobfsEnactor>>();
  r->g = test::small_rmat(10, 8);
  r->problem->init(r->g, m, cfg);
  r->enactor = std::make_unique<prim::DobfsEnactor>(*r->problem);
  const VertexT src = test::first_connected_vertex(r->g);
  r->do_reset = [src](auto& self) { self.enactor->reset(src); };
  r->do_signature = [](auto& self) {
    const auto labels = prim::gather_vertex_values<VertexT>(
        self.problem->partitioned(), [&](int gpu, VertexT lv) {
          return self.problem->data(gpu).labels[lv];
        });
    return std::vector<double>(labels.begin(), labels.end());
  };
  return r;
}

std::unique_ptr<PrimRunner> make_sssp_runner(vgpu::Machine& m,
                                             const core::Config& cfg) {
  auto r =
      std::make_unique<RunnerImpl<prim::SsspProblem, prim::SsspEnactor>>();
  r->g = test::small_weighted_rmat(10, 8);
  r->problem->init(r->g, m, cfg);
  r->enactor = std::make_unique<prim::SsspEnactor>(*r->problem);
  const VertexT src = test::first_connected_vertex(r->g);
  r->do_reset = [src](auto& self) { self.enactor->reset(src); };
  r->do_signature = [](auto& self) {
    const auto dist = prim::gather_vertex_values<ValueT>(
        self.problem->partitioned(), [&](int gpu, VertexT lv) {
          return self.problem->data(gpu).dist[lv];
        });
    return std::vector<double>(dist.begin(), dist.end());
  };
  return r;
}

std::unique_ptr<PrimRunner> make_pr_runner(vgpu::Machine& m,
                                           core::Config cfg) {
  cfg.max_iterations = 20;
  auto r = std::make_unique<
      RunnerImpl<prim::PagerankProblem, prim::PagerankEnactor>>();
  r->g = test::small_rmat(10, 8);
  r->problem->init(r->g, m, cfg);
  r->enactor = std::make_unique<prim::PagerankEnactor>(*r->problem);
  r->do_reset = [](auto& self) { self.enactor->reset(); };
  r->do_signature = [](auto& self) {
    const auto rank = prim::gather_vertex_values<ValueT>(
        self.problem->partitioned(), [&](int gpu, VertexT lv) {
          return self.problem->data(gpu).rank[lv];
        });
    return std::vector<double>(rank.begin(), rank.end());
  };
  return r;
}

std::unique_ptr<PrimRunner> make_cc_runner(vgpu::Machine& m,
                                           core::Config cfg) {
  cfg.duplication = part::Duplication::kAll;
  cfg.comm = core::CommStrategy::kBroadcast;
  auto r = std::make_unique<RunnerImpl<prim::CcProblem, prim::CcEnactor>>();
  r->g = test::small_rmat(10, 8);
  r->problem->init(r->g, m, cfg);
  r->enactor = std::make_unique<prim::CcEnactor>(*r->problem);
  r->do_reset = [](auto& self) { self.enactor->reset(); };
  r->do_signature = [](auto& self) {
    const auto comp = prim::gather_vertex_values<VertexT>(
        self.problem->partitioned(), [&](int gpu, VertexT lv) {
          return self.problem->data(gpu).comp[lv];
        });
    return std::vector<double>(comp.begin(), comp.end());
  };
  return r;
}

std::unique_ptr<PrimRunner> make_bc_runner(vgpu::Machine& m,
                                           core::Config cfg) {
  cfg.duplication = part::Duplication::kAll;
  auto r = std::make_unique<RunnerImpl<prim::BcProblem, prim::BcEnactor>>();
  r->g = test::small_rmat(10, 8);
  r->problem->init(r->g, m, cfg);
  r->enactor = std::make_unique<prim::BcEnactor>(*r->problem);
  const VertexT src = test::first_connected_vertex(r->g);
  r->do_reset = [src](auto& self) { self.enactor->reset(src); };
  r->do_signature = [](auto& self) {
    return prim::gather_vertex_values<double>(
        self.problem->partitioned(), [&](int gpu, VertexT lv) {
          return self.problem->data(gpu).bc[lv];
        });
  };
  return r;
}

/// The harness: fault-free golden run; a counting run to discover the
/// per-device allocation-event cursor at the start of enact(); a
/// targeted run where every run-time allocation on one device fails
/// (clean typed kOutOfMemory expected); then a clean second run on the
/// SAME enactor, which must reproduce the golden signature with no
/// accounting underflow.
void midrun_oom_roundtrip(const char* name, const RunnerFactory& make,
                          core::SyncMode mode) {
  constexpr int kGpus = 2;
  core::Config cfg = test::config_for(kGpus);
  cfg.sync_mode = mode;
  cfg.scheme = vgpu::AllocationScheme::kJustEnough;

  auto golden_machine = test::test_machine(kGpus);
  auto golden = make(golden_machine, cfg);
  golden->reset();
  golden->enact();
  const auto want = golden->signature();

  // Counting run: empty plan. The snapshot taken after build+reset
  // separates setup-time allocations from run-time ones.
  auto counting_machine = test::test_machine(kGpus);
  vgpu::FaultInjector counting(vgpu::FaultPlan{}, kGpus);
  counting_machine.set_fault_injector(&counting);
  auto probe = make(counting_machine, cfg);
  probe->reset();
  std::uint64_t base[kGpus];
  for (int d = 0; d < kGpus; ++d) base[d] = counting.alloc_events(d);
  probe->enact();
  int target = -1;
  for (int d = 0; d < kGpus; ++d) {
    if (counting.alloc_events(d) > base[d]) {
      target = d;
      break;
    }
  }
  ASSERT_GE(target, 0) << name
                       << ": no run-time allocations under just-enough — "
                          "the mid-run OOM scenario would be vacuous";

  // Targeted run: every allocation on `target` from the run's first
  // one onward fails (max_oom_regrows defaults to 0: no retry).
  vgpu::FaultSpec spec;
  spec.kind = vgpu::FaultKind::kAllocTransient;
  spec.device = target;
  spec.at_event = base[target];
  spec.count = 1u << 20;
  vgpu::FaultPlan plan;
  plan.specs.push_back(spec);
  auto machine = test::test_machine(kGpus);
  vgpu::FaultInjector injector(plan, kGpus);
  machine.set_fault_injector(&injector);
  auto victim = make(machine, cfg);
  victim->reset();
  try {
    victim->enact();
    FAIL() << name << ": expected mid-run kOutOfMemory";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kOutOfMemory) << name << ": " << e.what();
  }
  EXPECT_GT(injector.injected_count(), 0u) << name;

  // Same enactor, injector gone: CommBus::reset() (and, in pipeline
  // mode, HandshakeTable::abort() + reset()) must have left no stale
  // epoch state behind.
  machine.set_fault_injector(nullptr);
  victim->reset();
  const auto stats = victim->enact();
  EXPECT_EQ(victim->signature(), want)
      << name << ": recovered run diverged from fault-free";
  EXPECT_EQ(stats.faults_injected, 0u) << name;
  for (int d = 0; d < kGpus; ++d) {
    EXPECT_EQ(machine.device(d).memory().underflow_count(), 0u)
        << name << " gpu " << d;
  }
}

TEST(FaultRecovery, MidrunOomAllPrimitivesBarrier) {
  midrun_oom_roundtrip("bfs", make_bfs_runner, core::SyncMode::kBspBarrier);
  midrun_oom_roundtrip("dobfs", make_dobfs_runner,
                       core::SyncMode::kBspBarrier);
  midrun_oom_roundtrip("sssp", make_sssp_runner,
                       core::SyncMode::kBspBarrier);
  midrun_oom_roundtrip("pagerank", make_pr_runner,
                       core::SyncMode::kBspBarrier);
  midrun_oom_roundtrip("cc", make_cc_runner, core::SyncMode::kBspBarrier);
  midrun_oom_roundtrip("bc", make_bc_runner, core::SyncMode::kBspBarrier);
}

TEST(FaultRecovery, MidrunOomAllPrimitivesPipeline) {
  midrun_oom_roundtrip("bfs", make_bfs_runner,
                       core::SyncMode::kEventPipeline);
  midrun_oom_roundtrip("dobfs", make_dobfs_runner,
                       core::SyncMode::kEventPipeline);
  midrun_oom_roundtrip("sssp", make_sssp_runner,
                       core::SyncMode::kEventPipeline);
  midrun_oom_roundtrip("pagerank", make_pr_runner,
                       core::SyncMode::kEventPipeline);
  midrun_oom_roundtrip("cc", make_cc_runner, core::SyncMode::kEventPipeline);
  midrun_oom_roundtrip("bc", make_bc_runner, core::SyncMode::kEventPipeline);
}

// Grow-and-retry: a single transient allocation fault at the run's
// first run-time allocation, with a regrow budget, must complete with
// oom_regrows > 0 and fault-free-identical results.
TEST(FaultRecovery, TransientOomRecoversViaRegrow) {
  for (const auto mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    constexpr int kGpus = 2;
    core::Config cfg = test::config_for(kGpus);
    cfg.sync_mode = mode;
    cfg.scheme = vgpu::AllocationScheme::kJustEnough;
    cfg.max_oom_regrows = 2;

    auto golden_machine = test::test_machine(kGpus);
    auto golden = make_bfs_runner(golden_machine, cfg);
    golden->reset();
    golden->enact();
    const auto want = golden->signature();

    auto counting_machine = test::test_machine(kGpus);
    vgpu::FaultInjector counting(vgpu::FaultPlan{}, kGpus);
    counting_machine.set_fault_injector(&counting);
    auto probe = make_bfs_runner(counting_machine, cfg);
    probe->reset();
    const std::uint64_t base = counting.alloc_events(0);
    probe->enact();
    ASSERT_GT(counting.alloc_events(0), base);

    // GPU 0's first run-time allocation is its iteration-0 core output
    // queue: fail it once. The retry consumes the next site event, so
    // the transient clears and the replayed superstep completes.
    vgpu::FaultSpec spec;
    spec.kind = vgpu::FaultKind::kAllocTransient;
    spec.device = 0;
    spec.at_event = base;
    spec.count = 1;
    vgpu::FaultPlan plan;
    plan.specs.push_back(spec);
    auto machine = test::test_machine(kGpus);
    vgpu::FaultInjector injector(plan, kGpus);
    machine.set_fault_injector(&injector);
    auto runner = make_bfs_runner(machine, cfg);
    runner->reset();
    const auto stats = runner->enact();
    EXPECT_GT(stats.oom_regrows, 0u);
    EXPECT_EQ(stats.faults_injected, 1u);
    EXPECT_EQ(runner->signature(), want)
        << "regrow-recovered run diverged from fault-free";
  }
}

// Transient transfer faults below the retry budget: the run completes,
// charges backoff to the modeled comm timeline, and the results are
// fault-free-identical.
TEST(FaultRecovery, TransientTransferRetriesAndCompletes) {
  constexpr int kGpus = 2;
  core::Config cfg = test::config_for(kGpus);

  auto golden_machine = test::test_machine(kGpus);
  auto golden = make_bfs_runner(golden_machine, cfg);
  golden->reset();
  const auto golden_stats = golden->enact();
  const auto want = golden->signature();

  vgpu::FaultSpec spec;
  spec.kind = vgpu::FaultKind::kTransferTransient;
  spec.device = 0;
  spec.peer = 1;
  spec.at_event = 0;
  spec.count = 2;  // < Config::max_comm_retries (3)
  vgpu::FaultPlan plan;
  plan.specs.push_back(spec);
  auto machine = test::test_machine(kGpus);
  vgpu::FaultInjector injector(plan, kGpus);
  machine.set_fault_injector(&injector);
  auto runner = make_bfs_runner(machine, cfg);
  runner->reset();
  const auto stats = runner->enact();
  EXPECT_EQ(stats.comm_retries, 2u);
  EXPECT_EQ(stats.faults_injected, 2u);
  EXPECT_EQ(runner->signature(), want);
  // The retries' modeled backoff is charged to the comm timeline.
  EXPECT_GE(stats.modeled_comm_s, golden_stats.modeled_comm_s);
}

// Regression for the modeled-backoff overflow: backoff grew as
// base * 2^attempt with an unclamped exponent, which is UB once
// attempt >= 64 (1ULL << attempt) and models absurd seconds long
// before that — attempt 41 alone charges base * 2^41 ~ 1e5 modeled
// seconds at the 50us default base. With a high retry bound and a
// long transient burst, the pre-fix modeled comm time explodes
// (~2^70 * 50us ~ 6e16 s); post-fix the per-retry exponent clamps at
// 2^20 and the total backoff caps at base * 2^22 (~210 s), so the run
// completes with sane modeled time and bit-identical results.
TEST(FaultRecovery, HighRetryBoundBackoffIsClampedNotOverflowed) {
  constexpr int kGpus = 2;
  core::Config cfg = test::config_for(kGpus);
  cfg.max_comm_retries = 100;

  auto golden_machine = test::test_machine(kGpus);
  auto golden = make_bfs_runner(golden_machine, cfg);
  golden->reset();
  golden->enact();
  const auto want = golden->signature();

  vgpu::FaultSpec spec;
  spec.kind = vgpu::FaultKind::kTransferTransient;
  spec.device = 0;
  spec.peer = 1;
  spec.at_event = 0;
  spec.count = 70;  // drives attempt up to 70 on one push: past 2^63
  vgpu::FaultPlan plan;
  plan.specs.push_back(spec);
  auto machine = test::test_machine(kGpus);
  vgpu::FaultInjector injector(plan, kGpus);
  machine.set_fault_injector(&injector);
  auto runner = make_bfs_runner(machine, cfg);
  runner->reset();
  const auto stats = runner->enact();
  EXPECT_EQ(stats.comm_retries, 70u);
  EXPECT_EQ(runner->signature(), want);
  // The capped total backoff for one saturated retry loop is
  // 50us * 2^22 ~ 210 modeled seconds; leave an order of magnitude of
  // headroom. Pre-fix this is ~6e16 seconds (or UB garbage).
  EXPECT_LT(stats.modeled_comm_s, 1e4);
  EXPECT_GE(stats.modeled_comm_s, 0.0);
}

// Exhausting the transfer retry budget surfaces kUnavailable; the
// enactor stays reusable.
TEST(FaultRecovery, TransferRetryExhaustionSurfacesUnavailable) {
  constexpr int kGpus = 2;
  core::Config cfg = test::config_for(kGpus);

  vgpu::FaultSpec spec;
  spec.kind = vgpu::FaultKind::kTransferTransient;
  spec.device = 0;
  spec.peer = 1;
  spec.at_event = 0;
  spec.count = 1u << 20;  // never clears within the budget
  vgpu::FaultPlan plan;
  plan.specs.push_back(spec);
  auto machine = test::test_machine(kGpus);
  vgpu::FaultInjector injector(plan, kGpus);
  machine.set_fault_injector(&injector);
  auto runner = make_bfs_runner(machine, cfg);
  runner->reset();
  try {
    runner->enact();
    FAIL() << "expected retry exhaustion";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kUnavailable) << e.what();
  }
  machine.set_fault_injector(nullptr);
  runner->reset();
  EXPECT_NO_THROW(runner->enact());
}

// A swallowed handshake stalls the receiver; the bounded handshake
// wait must convert the hang into a kTimedOut naming the stalled link
// through the regular error stop, and the enactor must stay reusable.
TEST(FaultRecovery, WatchdogConvertsHandshakeStallIntoTimedOut) {
  constexpr int kGpus = 2;
  core::Config cfg = test::config_for(kGpus);
  cfg.sync_mode = core::SyncMode::kEventPipeline;
  cfg.watchdog_deadline_s = 0.2;

  auto golden_machine = test::test_machine(kGpus);
  auto golden = make_bfs_runner(golden_machine, cfg);
  golden->reset();
  golden->enact();
  const auto want = golden->signature();

  vgpu::FaultSpec spec;
  spec.kind = vgpu::FaultKind::kHandshakeDrop;
  spec.device = 0;
  spec.peer = 1;
  spec.at_event = 0;
  spec.count = 1u << 20;
  vgpu::FaultPlan plan;
  plan.specs.push_back(spec);
  auto machine = test::test_machine(kGpus);
  vgpu::FaultInjector injector(plan, kGpus);
  machine.set_fault_injector(&injector);
  auto runner = make_bfs_runner(machine, cfg);
  runner->reset();
  try {
    runner->enact();
    FAIL() << "expected watchdog timeout";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kTimedOut) << e.what();
    EXPECT_NE(std::string(e.what()).find("gpu0 -> gpu1"), std::string::npos)
        << e.what();
  }
  machine.set_fault_injector(nullptr);
  runner->reset();
  const auto stats = runner->enact();
  EXPECT_EQ(runner->signature(), want);
  EXPECT_DOUBLE_EQ(stats.watchdog_deadline_s, 0.2);
}

// A permanent kernel fault marks the device lost; with
// degrade_on_device_loss the facade re-enacts on n-1 vGPUs and still
// produces correct results.
TEST(FaultRecovery, DegradedReenactOnDeviceLoss) {
  const auto g = test::small_rmat(7, 8);
  const VertexT src = test::first_connected_vertex(g);
  core::Config cfg = test::config_for(2);

  auto golden_machine = test::test_machine(2);
  const auto want = prim::run_bfs(g, src, golden_machine, cfg);

  vgpu::FaultSpec spec;
  spec.kind = vgpu::FaultKind::kKernelFault;
  spec.device = 1;
  spec.at_event = 0;
  vgpu::FaultPlan plan;
  plan.specs.push_back(spec);
  auto machine = test::test_machine(2);
  vgpu::FaultInjector injector(plan, 2);
  machine.set_fault_injector(&injector);

  // Without the flag: the loss surfaces as kUnavailable.
  try {
    prim::run_bfs(g, src, machine, cfg);
    FAIL() << "expected device loss";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kUnavailable) << e.what();
  }
  EXPECT_EQ(injector.lost_device(), 1);

  // With the flag: the facade acknowledges the loss and re-runs on one
  // vGPU; the result matches the fault-free two-GPU run.
  vgpu::FaultInjector injector2(plan, 2);
  machine.set_fault_injector(&injector2);
  cfg.degrade_on_device_loss = true;
  const auto degraded = prim::run_bfs(g, src, machine, cfg);
  EXPECT_EQ(degraded.labels, want.labels);
  EXPECT_EQ(degraded.stats.degraded_reruns, 1u);
  EXPECT_EQ(injector2.lost_device(), -1);  // loss acknowledged
  machine.set_fault_injector(nullptr);
}

// ---------------------------------------------------------------------
// FaultPlan::parse error paths: every malformed token must be rejected
// with kInvalidArgument NAMING the offending token, never silently
// skipped or misparsed.
// ---------------------------------------------------------------------

void expect_parse_rejects(const std::string& text,
                          const std::string& must_mention) {
  try {
    (void)vgpu::FaultPlan::parse(text);
    FAIL() << "parse accepted '" << text << "'";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kInvalidArgument) << text;
    EXPECT_NE(std::string(e.what()).find(must_mention), std::string::npos)
        << "error for '" << text << "' does not name '" << must_mention
        << "': " << e.what();
  }
}

TEST(FaultInjection, ParseRejectsUnknownKind) {
  expect_parse_rejects("kernel_fautl@1", "kernel_fautl");
  expect_parse_rejects("@1", "unknown fault kind");
}

TEST(FaultInjection, ParseRejectsMissingOrBadDevice) {
  expect_parse_rejects("kernel_fault", "missing '@device'");
  expect_parse_rejects("kernel_fault@", "bad device");
  expect_parse_rejects("kernel_fault@x", "bad device");
  // -1 is the wildcard; -2 is a typo, not a site.
  expect_parse_rejects("kernel_fault@-2", "bad device");
  // Numbers that do not fit an int must not wrap onto another site
  // (2^32 - 1 onto the wildcard, 2^32 onto device 0).
  expect_parse_rejects("kernel_fault@4294967295", "bad device");
  expect_parse_rejects("kernel_fault@4294967296", "bad device");
  expect_parse_rejects("kernel_fault@99999999999999999999", "bad device");
}

TEST(FaultInjection, ParseRejectsBadPeer) {
  expect_parse_rejects("transfer_transient@0>", "bad peer");
  expect_parse_rejects("transfer_transient@0>-3", "bad peer");
  expect_parse_rejects("transfer_transient@0>4294967297", "bad peer");
}

TEST(FaultInjection, ParseRejectsNegativeOrZeroCounts) {
  // A sign on an unsigned field is rejected, never wrapped to a huge
  // count.
  expect_parse_rejects("alloc_transient@1x-3", "bad count");
  expect_parse_rejects("alloc_transient@1x0", "bad count");
  expect_parse_rejects("alloc_transient@1#-2", "bad at_event");
  // Past 2^64 - 1: rejected, not clamped.
  expect_parse_rejects("alloc_transient@1#99999999999999999999",
                       "bad at_event");
  expect_parse_rejects("alloc_transient@1x99999999999999999999",
                       "bad count");
}

TEST(FaultInjection, ParseRejectsBadFactorAndTrailingJunk) {
  expect_parse_rejects("kernel_slowdown@0*", "bad factor");
  expect_parse_rejects("kernel_slowdown@0*-4", "bad factor");
  expect_parse_rejects("kernel_slowdown@0*1e999", "bad factor");
  expect_parse_rejects("kernel_slowdown@0*inf", "bad factor");
  expect_parse_rejects("alloc_transient@1z9", "trailing junk");
}

TEST(FaultInjection, ParseSurvivesSeededMutations) {
  // Mutation fuzzing of FaultPlan::parse: seeded plans and one plan
  // that uses every field, each damaged by a byte flip, a truncation, a
  // longer digit run, or an inserted sign, exponent or non-finite
  // spelling. parse must accept the text or reject it with
  // kInvalidArgument; an accepted plan has finite factors and
  // round-trips through to_string.
  const std::string kEveryField =
      "transfer_slowdown@1>2#3x4*2.5,kernel_fault@-1#9";
  const char* const kInserts[] = {"-", "e999", "inf", "nan"};
  constexpr std::uint64_t kSeeds = 1000;  // x 2 plans x 4 mutations
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    util::Rng rng(seed);
    for (const std::string& valid :
         {vgpu::FaultPlan::from_seed(seed, 4).to_string(), kEveryField}) {
      for (int mutation = 0; mutation < 4; ++mutation) {
        std::string text = valid;
        switch (mutation) {
          case 0:  // flip some bits of one byte
            text[rng.next_below(text.size())] ^=
                static_cast<char>(1 + rng.next_below(255));
            break;
          case 1:  // truncate
            text.resize(rng.next_below(text.size()));
            break;
          case 2: {  // lengthen a digit run by 1-20 digits
            std::size_t at = rng.next_below(text.size());
            while (at < text.size() &&
                   !std::isdigit(static_cast<unsigned char>(text[at]))) {
              ++at;
            }
            for (std::uint64_t k = 1 + rng.next_below(20); k > 0; --k) {
              text.insert(at, 1, static_cast<char>('0' + rng.next_below(10)));
            }
            break;
          }
          default:  // insert a sign, an exponent or a non-finite spelling
            text.insert(rng.next_below(text.size() + 1),
                        kInserts[rng.next_below(std::size(kInserts))]);
            break;
        }
        const std::string where =
            "seed " + std::to_string(seed) + ", input '" + text + "'";
        vgpu::FaultPlan plan;
        try {
          plan = vgpu::FaultPlan::parse(text);
        } catch (const Error& e) {
          EXPECT_EQ(e.status(), Status::kInvalidArgument)
              << where << ": " << e.what();
          continue;
        } catch (const std::exception& e) {
          ADD_FAILURE() << where << ": untyped exception: " << e.what();
          continue;
        }
        for (const vgpu::FaultSpec& spec : plan.specs) {
          EXPECT_TRUE(std::isfinite(spec.factor)) << where;
        }
        const std::string printed = plan.to_string();
        try {
          EXPECT_EQ(vgpu::FaultPlan::parse(printed).to_string(), printed)
              << where;
        } catch (const std::exception& e) {
          ADD_FAILURE() << where << ": '" << printed
                        << "' does not parse back: " << e.what();
        }
      }
    }
  }
}

TEST(FaultInjection, ParseRejectsDuplicateSpecs) {
  expect_parse_rejects("alloc_transient@1#3,alloc_transient@1#3",
                       "duplicate fault spec 'alloc_transient@1#3'");
  // Same site, different windows: legal (they cover different events).
  EXPECT_NO_THROW(
      (void)vgpu::FaultPlan::parse("alloc_transient@1#3,alloc_transient@1#9"));
  // Different peers on the same link site: distinct sites, legal.
  EXPECT_NO_THROW((void)vgpu::FaultPlan::parse(
      "transfer_transient@0>1,transfer_transient@0>2"));
}

TEST(FaultInjection, LaneSeedDerivationIsDecorrelatedAndDeterministic) {
  // Same (base, lane) -> same seed; distinct lanes -> distinct seeds;
  // lane 0 is not the raw base.
  EXPECT_EQ(vgpu::lane_fault_seed(42, 0), vgpu::lane_fault_seed(42, 0));
  EXPECT_NE(vgpu::lane_fault_seed(42, 0), vgpu::lane_fault_seed(42, 1));
  EXPECT_NE(vgpu::lane_fault_seed(42, 1), vgpu::lane_fault_seed(42, 2));
  EXPECT_NE(vgpu::lane_fault_seed(42, 0), 42u);

  // A scripted plan arms lane 0 only; a seed arms every lane.
  auto lane0 = vgpu::make_lane_injector_from_flags("kernel_fault@1", 0, 0, 4);
  ASSERT_NE(lane0, nullptr);
  EXPECT_EQ(lane0->plan().specs.size(), 1u);
  EXPECT_EQ(vgpu::make_lane_injector_from_flags("kernel_fault@1", 0, 1, 4),
            nullptr);
  auto seeded1 = vgpu::make_lane_injector_from_flags("", 7, 1, 4);
  auto seeded2 = vgpu::make_lane_injector_from_flags("", 7, 2, 4);
  ASSERT_NE(seeded1, nullptr);
  ASSERT_NE(seeded2, nullptr);
  EXPECT_NE(seeded1->plan().to_string(), seeded2->plan().to_string());
  // Both at once: lane 0 carries script + its own seeded specs.
  auto combined = vgpu::make_lane_injector_from_flags("kernel_fault@1", 7,
                                                      0, 4);
  ASSERT_NE(combined, nullptr);
  EXPECT_GT(combined->plan().specs.size(), 1u);
  EXPECT_EQ(combined->plan().specs.front().kind,
            vgpu::FaultKind::kKernelFault);
  EXPECT_EQ(vgpu::make_lane_injector_from_flags("", 0, 3, 4), nullptr);
}

}  // namespace
}  // namespace mgg
