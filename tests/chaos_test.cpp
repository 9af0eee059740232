// Chaos suite: seeded deterministic fault plans against whole
// primitive runs (tentpole acceptance gate). The contract under
// injected chaos is strict:
//   - a run that completes must produce fault-free-identical results;
//   - a run that fails must fail with a clean *typed* Error, leave the
//     machine reusable (a follow-up run on the same machine matches
//     the golden results) and leak no device memory;
//   - an *empty* fault plan must be bit-identical to no injector at
//     all, results and modeled W/H/time counters included (the
//     differential gate: the injector's hot-path hooks are free when
//     disarmed).
// Every assertion message carries the plan seed so a red run is
// reproducible from the log alone.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/sssp.hpp"
#include "test_support.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/machine.hpp"

namespace mgg {
namespace {

struct RunOut {
  std::vector<double> sig;
  vgpu::RunStats stats;
};

/// One chaos subject: a primitive run end-to-end through its facade,
/// reduced to a comparable signature.
struct Subject {
  const char* name;
  std::function<RunOut(vgpu::Machine&, const core::Config&)> run;
};

const graph::Graph& chaos_graph() {
  static const graph::Graph g = test::small_rmat(9, 8);
  return g;
}

const graph::Graph& chaos_weighted_graph() {
  static const graph::Graph g = test::small_weighted_rmat(9, 8);
  return g;
}

std::vector<Subject> subjects() {
  std::vector<Subject> out;
  out.push_back({"bfs", [](vgpu::Machine& m, const core::Config& cfg) {
                   const auto& g = chaos_graph();
                   const auto r =
                       prim::run_bfs(g, test::first_connected_vertex(g), m, cfg);
                   return RunOut{{r.labels.begin(), r.labels.end()}, r.stats};
                 }});
  out.push_back({"sssp", [](vgpu::Machine& m, const core::Config& cfg) {
                   const auto& g = chaos_weighted_graph();
                   const auto r = prim::run_sssp(
                       g, test::first_connected_vertex(g), m, cfg);
                   return RunOut{{r.dist.begin(), r.dist.end()}, r.stats};
                 }});
  out.push_back({"pagerank", [](vgpu::Machine& m, const core::Config& cfg) {
                   const auto r = prim::run_pagerank(chaos_graph(), m, cfg);
                   return RunOut{{r.rank.begin(), r.rank.end()}, r.stats};
                 }});
  out.push_back({"bc", [](vgpu::Machine& m, const core::Config& cfg) {
                   const auto& g = chaos_graph();
                   const auto r = prim::run_bc(
                       g, m, cfg, {test::first_connected_vertex(g)});
                   return RunOut{{r.bc.begin(), r.bc.end()}, r.stats};
                 }});
  return out;
}

core::Config chaos_config(int gpus, core::SyncMode mode) {
  core::Config cfg = test::config_for(gpus);
  cfg.sync_mode = mode;
  // Just-enough exercises the grow-and-retry path; a modest regrow
  // budget makes transient alloc faults recoverable where the
  // primitive's core is replayable.
  cfg.scheme = vgpu::AllocationScheme::kJustEnough;
  cfg.max_oom_regrows = 2;
  // Safety net: no chaos run may hang CI. from_seed draws only
  // transient/slowdown kinds, so this should never fire — if it does,
  // the typed kTimedOut still satisfies the chaos contract.
  cfg.watchdog_deadline_s = 10.0;
  return cfg;
}

void expect_no_leaks(vgpu::Machine& machine, int gpus,
                     const std::string& label) {
  for (int d = 0; d < gpus; ++d) {
    EXPECT_EQ(machine.device(d).memory().current_bytes(), 0u)
        << label << " gpu " << d << ": leaked device memory";
    EXPECT_EQ(machine.device(d).memory().underflow_count(), 0u)
        << label << " gpu " << d << ": accounting underflow";
  }
}

/// One seeded chaos run: golden fault-free pass, then the same config
/// under FaultPlan::from_seed. Completion must match golden; failure
/// must be typed and leave the machine good for an immediate clean
/// rerun that matches golden.
std::uint64_t chaos_run(const Subject& subject, std::uint64_t seed, int gpus,
                        core::SyncMode mode) {
  const std::string label = std::string(subject.name) + " seed=" +
                            std::to_string(seed) + " gpus=" +
                            std::to_string(gpus) + " mode=" +
                            (mode == core::SyncMode::kBspBarrier ? "barrier"
                                                                 : "pipeline");
  SCOPED_TRACE(label);
  const core::Config cfg = chaos_config(gpus, mode);

  auto golden_machine = test::test_machine(gpus);
  const RunOut want = subject.run(golden_machine, cfg);

  const vgpu::FaultPlan plan = vgpu::FaultPlan::from_seed(seed, gpus);
  EXPECT_FALSE(plan.empty()) << "from_seed produced an empty plan";
  auto machine = test::test_machine(gpus);
  vgpu::FaultInjector injector(plan, gpus);
  machine.set_fault_injector(&injector);

  bool completed = false;
  try {
    const RunOut got = subject.run(machine, cfg);
    completed = true;
    EXPECT_EQ(got.sig, want.sig)
        << "completed chaos run diverged from fault-free (plan: "
        << plan.to_string() << ")";
  } catch (const Error& e) {
    const bool typed = e.status() == Status::kOutOfMemory ||
                       e.status() == Status::kUnavailable ||
                       e.status() == Status::kTimedOut;
    EXPECT_TRUE(typed) << "untyped chaos failure: " << e.what()
                       << " (plan: " << plan.to_string() << ")";
  }
  expect_no_leaks(machine, gpus, label + (completed ? " post-run" : " post-failure"));

  // The machine must be reusable either way: a clean run right after,
  // on the same devices, reproduces the golden results exactly.
  machine.set_fault_injector(nullptr);
  const RunOut rerun = subject.run(machine, cfg);
  EXPECT_EQ(rerun.sig, want.sig)
      << "clean rerun on the chaos machine diverged (plan: "
      << plan.to_string() << ")";
  expect_no_leaks(machine, gpus, label + " post-rerun");
  return injector.injected_count();
}

// 12+ seeded plans spread over all four subjects, vGPU counts
// {1,2,4,8} and both sync schedules.
TEST(Chaos, SeededPlansRecoverOrFailCleanly) {
  const auto subs = subjects();
  const std::uint64_t seeds[] = {11, 23, 37};
  const int gpu_counts[] = {1, 2, 4, 8};
  int combo = 0;
  std::uint64_t total_injected = 0;
  for (std::size_t si = 0; si < std::size(seeds); ++si) {
    for (std::size_t pi = 0; pi < subs.size(); ++pi, ++combo) {
      const int gpus = gpu_counts[(si + pi) % std::size(gpu_counts)];
      const auto mode = (si + pi) % 2 == 0 ? core::SyncMode::kBspBarrier
                                           : core::SyncMode::kEventPipeline;
      total_injected += chaos_run(subs[pi], seeds[si] + 100 * pi, gpus, mode);
    }
  }
  EXPECT_GE(combo, 12);
  // The suite is only meaningful if the plans actually fire.
  EXPECT_GT(total_injected, 0u) << "no seeded plan injected a single fault";
}

// Differential gate: an installed injector with an *empty* plan must
// be invisible — results and every modeled counter bit-identical to no
// injector at all, across primitives x vGPU counts x schedules.
TEST(Chaos, EmptyPlanInjectorIsBitIdenticalToNone) {
  const auto subs = subjects();
  for (const auto& subject : subs) {
    if (std::string(subject.name) == "bc") continue;  // BFS/SSSP/PR gate
    for (const int gpus : {1, 2, 4, 8}) {
      for (const auto mode :
           {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
        const std::string label =
            std::string(subject.name) + " gpus=" + std::to_string(gpus) +
            " mode=" +
            (mode == core::SyncMode::kBspBarrier ? "barrier" : "pipeline");
        SCOPED_TRACE(label);
        const core::Config cfg = chaos_config(gpus, mode);

        auto bare_machine = test::test_machine(gpus);
        const RunOut bare = subject.run(bare_machine, cfg);

        auto machine = test::test_machine(gpus);
        vgpu::FaultInjector disarmed(vgpu::FaultPlan{}, gpus);
        machine.set_fault_injector(&disarmed);
        const RunOut armed = subject.run(machine, cfg);

        EXPECT_EQ(armed.sig, bare.sig);
        EXPECT_EQ(armed.stats.iterations, bare.stats.iterations);
        EXPECT_EQ(armed.stats.total_edges, bare.stats.total_edges);
        EXPECT_EQ(armed.stats.total_vertices, bare.stats.total_vertices);
        EXPECT_EQ(armed.stats.total_comm_items, bare.stats.total_comm_items);
        EXPECT_EQ(armed.stats.total_comm_bytes, bare.stats.total_comm_bytes);
        EXPECT_EQ(armed.stats.modeled_compute_s, bare.stats.modeled_compute_s);
        EXPECT_EQ(armed.stats.modeled_comm_s, bare.stats.modeled_comm_s);
        EXPECT_EQ(armed.stats.modeled_total_s(), bare.stats.modeled_total_s());
        EXPECT_EQ(armed.stats.faults_injected, 0u);
        EXPECT_EQ(armed.stats.oom_regrows, 0u);
        EXPECT_EQ(armed.stats.comm_retries, 0u);
      }
    }
  }
}

// Fault plans parse/print round-trip and seeded plans are
// reproducible: the chaos suite's failure messages print the seed, so
// this is what makes a red run replayable from the log.
TEST(Chaos, SeededPlansAreDeterministicAndRoundTrip) {
  for (const std::uint64_t seed : {1ull, 7ull, 999ull}) {
    const auto a = vgpu::FaultPlan::from_seed(seed, 4);
    const auto b = vgpu::FaultPlan::from_seed(seed, 4);
    EXPECT_EQ(a.to_string(), b.to_string()) << "seed=" << seed;
    const auto reparsed = vgpu::FaultPlan::parse(a.to_string());
    EXPECT_EQ(reparsed.to_string(), a.to_string()) << "seed=" << seed;
  }
  EXPECT_NE(vgpu::FaultPlan::from_seed(1, 4).to_string(),
            vgpu::FaultPlan::from_seed(2, 4).to_string());
}

// Small chaos subset that runs under ThreadSanitizer in check.sh: the
// injector's atomics, the retry loop and the handshake table's abort
// all cross threads.
TEST(ChaosTsan, Smoke) {
  const auto subs = subjects();
  chaos_run(subs[0], 7, 2, core::SyncMode::kEventPipeline);
  chaos_run(subs[1], 9, 4, core::SyncMode::kBspBarrier);
}

}  // namespace
}  // namespace mgg
