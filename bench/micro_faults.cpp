// Micro suite: fault injection + superstep recovery acceptance gates.
//
// Three gates, each earned rather than vacuous:
//
//  * grow-and-retry — a just-enough BFS run with a transient
//    allocation fault at its first run-time allocation *throws
//    kOutOfMemory today* (regrow budget 0, the pre-recovery
//    behavior); the identical run with a regrow budget completes with
//    oom_regrows > 0 and fault-free-identical labels. The counting
//    pass that finds the allocation event index also proves the
//    scenario is real (just-enough actually allocates mid-run).
//
//  * comm retry/backoff — transient transfer faults below the retry
//    budget complete with comm_retries > 0, identical results, and a
//    modeled time that grew by the injected backoff.
//
//  * degraded re-enact — a permanent kernel fault marks a device
//    lost; with Config::degrade_on_device_loss the facade re-runs on
//    n-1 vGPUs and still matches the fault-free labels, recording
//    degraded_reruns = 1.
//
// Results go to --json=PATH (default BENCH_faults.json); a failed
// gate prints the offending fault plan and exits non-zero.
//
// Flags: --scale=N rmat scale (default 12), --gpus=N (default 2),
// --json=PATH, plus the common bench flags.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "graph/generators.hpp"
#include "primitives/bfs.hpp"
#include "primitives/common.hpp"
#include "util/json.hpp"
#include "vgpu/fault.hpp"

namespace {

using namespace mgg;

std::vector<VertexT> enactor_labels(prim::BfsProblem& problem) {
  return prim::gather_vertex_values<VertexT>(
      problem.partitioned(),
      [&](int gpu, VertexT lv) { return problem.data(gpu).labels[lv]; });
}

struct DirectRun {
  std::vector<VertexT> labels;
  vgpu::RunStats stats;
  bool threw_oom = false;
};

/// Build problem + enactor against `machine` and run one BFS. The
/// direct (non-facade) path lets the caller snapshot the injector's
/// per-site counters between reset and enact — that window separates
/// setup-time allocations from run-time ones.
DirectRun direct_bfs(const graph::Graph& g, VertexT src,
                     vgpu::Machine& machine, const core::Config& cfg,
                     vgpu::FaultInjector* counting_base_out_injector,
                     std::uint64_t* base_out) {
  DirectRun out;
  prim::BfsProblem problem;
  problem.init(g, machine, cfg);
  prim::BfsEnactor enactor(problem);
  enactor.reset(src);
  if (counting_base_out_injector != nullptr && base_out != nullptr) {
    *base_out = counting_base_out_injector->alloc_events(0);
  }
  try {
    out.stats = enactor.enact();
    out.labels = enactor_labels(problem);
  } catch (const Error& e) {
    if (e.status() != Status::kOutOfMemory) throw;
    out.threw_oom = true;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options =
      bench::parse_common(argc, argv, {"gpus", "json", "scale"});
  const int scale = bench::flag(options, "scale", 12, 1, 30);
  const int gpus = bench::flag(options, "gpus", 2, 1, bench::kMaxGpus);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);
  const std::string json_path = options.get_string("json", "BENCH_faults.json");

  const graph::Graph g = graph::build_undirected(
      graph::make_rmat(scale, 8, graph::RmatParams::gtgraph(), seed));
  const VertexT src = bench::pick_source(g);

  core::Config cfg;
  cfg.num_gpus = gpus;
  cfg.scheme = vgpu::AllocationScheme::kJustEnough;

  // -------------------------------------------------------------------
  // Gate 1: grow-and-retry. Counting pass discovers the first run-time
  // allocation event on device 0 (and proves there is one).
  // -------------------------------------------------------------------
  auto fault_free_machine = vgpu::Machine::create("k40", gpus);
  const DirectRun fault_free =
      direct_bfs(g, src, fault_free_machine, cfg, nullptr, nullptr);

  auto counting_machine = vgpu::Machine::create("k40", gpus);
  vgpu::FaultInjector counting(vgpu::FaultPlan{}, gpus);
  counting_machine.set_fault_injector(&counting);
  std::uint64_t base = 0;
  direct_bfs(g, src, counting_machine, cfg, &counting, &base);
  const bool midrun_allocs = counting.alloc_events(0) > base;

  vgpu::FaultSpec oom_spec;
  oom_spec.kind = vgpu::FaultKind::kAllocTransient;
  oom_spec.device = 0;
  oom_spec.at_event = base;
  oom_spec.count = 1;
  vgpu::FaultPlan oom_plan;
  oom_plan.specs.push_back(oom_spec);

  // Without a regrow budget the fault is fatal (the pre-recovery
  // behavior this gate pins as "throws today").
  auto no_budget_machine = vgpu::Machine::create("k40", gpus);
  vgpu::FaultInjector no_budget_injector(oom_plan, gpus);
  no_budget_machine.set_fault_injector(&no_budget_injector);
  const DirectRun no_budget =
      direct_bfs(g, src, no_budget_machine, cfg, nullptr, nullptr);

  core::Config regrow_cfg = cfg;
  regrow_cfg.max_oom_regrows = 2;
  auto regrow_machine = vgpu::Machine::create("k40", gpus);
  vgpu::FaultInjector regrow_injector(oom_plan, gpus);
  regrow_machine.set_fault_injector(&regrow_injector);
  const DirectRun regrow =
      direct_bfs(g, src, regrow_machine, regrow_cfg, nullptr, nullptr);

  const bool regrow_ok = midrun_allocs && no_budget.threw_oom &&
                         !regrow.threw_oom && regrow.stats.oom_regrows > 0 &&
                         regrow.labels == fault_free.labels;

  // -------------------------------------------------------------------
  // Gate 2: comm retry/backoff.
  // -------------------------------------------------------------------
  vgpu::FaultSpec retry_spec;
  retry_spec.kind = vgpu::FaultKind::kTransferTransient;
  retry_spec.device = 0;
  retry_spec.peer = gpus > 1 ? 1 : 0;
  retry_spec.at_event = 0;
  retry_spec.count = 2;  // below Config::max_comm_retries
  vgpu::FaultPlan retry_plan;
  retry_plan.specs.push_back(retry_spec);
  auto retry_machine = vgpu::Machine::create("k40", gpus);
  vgpu::FaultInjector retry_injector(retry_plan, gpus);
  retry_machine.set_fault_injector(&retry_injector);
  const DirectRun retried =
      direct_bfs(g, src, retry_machine, cfg, nullptr, nullptr);

  const bool retry_ok =
      !retried.threw_oom && retried.stats.comm_retries > 0 &&
      retried.labels == fault_free.labels &&
      retried.stats.modeled_total_s() >= fault_free.stats.modeled_total_s();

  // -------------------------------------------------------------------
  // Gate 3: degraded re-enact on permanent device loss (facade path).
  // -------------------------------------------------------------------
  const auto golden = prim::run_bfs(g, src, fault_free_machine, cfg);

  vgpu::FaultSpec loss_spec;
  loss_spec.kind = vgpu::FaultKind::kKernelFault;
  loss_spec.device = gpus - 1;
  loss_spec.at_event = 0;
  vgpu::FaultPlan loss_plan;
  loss_plan.specs.push_back(loss_spec);
  core::Config degrade_cfg = cfg;
  degrade_cfg.degrade_on_device_loss = true;
  auto loss_machine = vgpu::Machine::create("k40", gpus);
  vgpu::FaultInjector loss_injector(loss_plan, gpus);
  loss_machine.set_fault_injector(&loss_injector);
  bool degraded_ok = false;
  std::uint64_t degraded_reruns = 0;
  if (gpus > 1) {
    const auto degraded = prim::run_bfs(g, src, loss_machine, degrade_cfg);
    degraded_reruns = degraded.stats.degraded_reruns;
    degraded_ok =
        degraded.labels == golden.labels && degraded_reruns == 1;
  } else {
    degraded_ok = true;  // nothing to degrade to on one vGPU
  }

  const bool ok = regrow_ok && retry_ok && degraded_ok;

  std::printf(
      "grow-and-retry: midrun allocs %s, no-budget run %s, regrown run "
      "oom_regrows=%llu labels %s  ->  %s\n",
      midrun_allocs ? "yes" : "NO",
      no_budget.threw_oom ? "threw (as today)" : "DID NOT THROW",
      static_cast<unsigned long long>(regrow.stats.oom_regrows),
      regrow.labels == fault_free.labels ? "match" : "MISMATCH",
      regrow_ok ? "pass" : "FAIL");
  std::printf(
      "comm retry/backoff: comm_retries=%llu labels %s modeled %s  ->  %s\n",
      static_cast<unsigned long long>(retried.stats.comm_retries),
      retried.labels == fault_free.labels ? "match" : "MISMATCH",
      retried.stats.modeled_total_s() >= fault_free.stats.modeled_total_s()
          ? ">= fault-free"
          : "< fault-free",
      retry_ok ? "pass" : "FAIL");
  std::printf("degraded re-enact: degraded_reruns=%llu  ->  %s\n",
              static_cast<unsigned long long>(degraded_reruns),
              degraded_ok ? "pass" : "FAIL");
  if (!ok) {
    std::printf("failing plans: oom=[%s] retry=[%s] loss=[%s]\n",
                oom_plan.to_string().c_str(), retry_plan.to_string().c_str(),
                loss_plan.to_string().c_str());
  }

  util::JsonWriter w;
  w.begin_object();
  w.key("graph").begin_object();
  w.key("scale").value(static_cast<long long>(scale));
  w.key("vertices").value(static_cast<unsigned long long>(g.num_vertices));
  w.key("edges").value(static_cast<unsigned long long>(g.num_edges));
  w.key("gpus").value(static_cast<long long>(gpus));
  w.end_object();
  w.key("grow_and_retry").begin_object();
  w.key("midrun_allocs").value(midrun_allocs);
  w.key("no_budget_threw").value(no_budget.threw_oom);
  w.key("oom_regrows").value(
      static_cast<unsigned long long>(regrow.stats.oom_regrows));
  w.key("faults_injected").value(
      static_cast<unsigned long long>(regrow.stats.faults_injected));
  w.key("labels_match").value(regrow.labels == fault_free.labels);
  w.key("pass").value(regrow_ok);
  w.end_object();
  w.key("comm_retry").begin_object();
  w.key("comm_retries").value(
      static_cast<unsigned long long>(retried.stats.comm_retries));
  w.key("modeled_total_s").value(retried.stats.modeled_total_s());
  w.key("fault_free_modeled_total_s").value(
      fault_free.stats.modeled_total_s());
  w.key("labels_match").value(retried.labels == fault_free.labels);
  w.key("pass").value(retry_ok);
  w.end_object();
  w.key("degraded_reenact").begin_object();
  w.key("degraded_reruns").value(
      static_cast<unsigned long long>(degraded_reruns));
  w.key("pass").value(degraded_ok);
  w.end_object();
  w.key("pass").value(ok);
  w.end_object();
  w.save(json_path);
  std::printf("wrote %s\n", json_path.c_str());

  std::printf("acceptance (grow-and-retry recovers, comm retries recover, "
              "degraded re-enact correct): %s\n", ok ? "PASS" : "FAIL");
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
