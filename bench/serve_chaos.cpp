// Serve-layer resilience gate: injected faults degrade throughput,
// never correctness or availability (docs/architecture.md §15).
//
// Three phases on the rmat analog at 4 vGPUs x 3 lanes:
//
//   A. Fault-free baseline. Every query answers kOk and bit-identical
//      to its individual single-source run; every supervision counter
//      (restarts, requeues, sheds, failures, injected faults) is zero
//      — the resilience layer must be inert when nothing fails; and
//      two identical runs report bit-identical modeled stats (the
//      batch-index-order summation contract).
//
//   B. Chaos. A scripted permanent kernel fault takes out a device on
//      lane 0 mid-run (--fault-plan style, armed on lane 0 only) while
//      a seeded plan (vgpu::lane_fault_seed) peppers every lane with
//      independent transients. Gates: zero queries lost (answered +
//      timed_out + shed + failed == submitted), >= 1 lane restart and
//      >= 1 batch requeue actually happened (non-vacuous), >= 1 fault
//      actually fired, every answered query is STILL bit-identical to
//      its fault-free individual run, answers flowed from lanes other
//      than the faulted one, and the service survives (not every lane
//      quarantined).
//
//   C. Open loop. A Poisson arrival burst far above capacity against a
//      small admission bound: the service sheds (kResourceExhausted)
//      instead of queueing without bound, still answers what it
//      admitted bit-identically, loses nothing, and reports offered vs
//      achieved QPS.
//
// All gate quantities are modeled or structural; no wall-clock
// thresholds (wall time only paces the open-loop arrivals).
//
// Flags: the common set (--queries/--query-seed/--batch-width) plus
// --lanes=N (default 3).
#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "primitives/bfs.hpp"
#include "primitives/sssp.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "util/table.hpp"
#include "vgpu/machine.hpp"

namespace {

using namespace mgg;

constexpr int kGpus = 4;
const char* const kDataset = "rmat_n20_512";

bool check(bool ok, const char* what, const std::string& label) {
  if (!ok) std::fprintf(stderr, "FAIL [%s]: %s\n", label.c_str(), what);
  return ok;
}

/// Fault-free per-query reference answers from individual
/// single-source runs, cached per (class, src).
class Reference {
 public:
  Reference(const graph::Graph& g, const core::Config& cfg)
      : g_(g), cfg_(cfg), machine_(vgpu::Machine::create("k40", kGpus)) {}

  /// True iff `r` (a kOk result for `q`) matches the individual run.
  bool matches(const serve::Query& q, const serve::QueryResult& r) {
    if (q.kind == serve::QueryKind::kSsspDist) {
      const auto& dist = sssp_labels(q.src);
      const ValueT want = dist[q.dst];
      // Bit-level: unreachable stays infinity, reachable stays exact.
      return r.dist == want && r.reachable == (want < kInf);
    }
    const auto& depth = bfs_labels(q.src);
    const VertexT want = depth[q.dst];
    if (q.kind == serve::QueryKind::kBfsDepth && r.depth != want)
      return false;
    return r.reachable == (want != kInvalidVertex);
  }

 private:
  const std::vector<VertexT>& bfs_labels(VertexT src) {
    auto it = bfs_.find(src);
    if (it == bfs_.end()) {
      it = bfs_.emplace(src, prim::run_bfs(g_, src, machine_, cfg_).labels)
               .first;
    }
    return it->second;
  }
  const std::vector<ValueT>& sssp_labels(VertexT src) {
    auto it = sssp_.find(src);
    if (it == sssp_.end()) {
      it = sssp_.emplace(src, prim::run_sssp(g_, src, machine_, cfg_).dist)
               .first;
    }
    return it->second;
  }

  static constexpr ValueT kInf = std::numeric_limits<ValueT>::infinity();
  const graph::Graph& g_;
  core::Config cfg_;
  vgpu::Machine machine_;
  std::map<VertexT, std::vector<VertexT>> bfs_;
  std::map<VertexT, std::vector<ValueT>> sssp_;
};

/// Answered results all bit-identical to their individual runs.
bool answers_identical(std::span<const serve::Query> queries,
                       std::span<const serve::QueryResult> results,
                       Reference& ref, const std::string& label) {
  bool ok = true;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (results[i].status != Status::kOk) continue;
    if (!ref.matches(queries[i], results[i])) {
      std::fprintf(stderr,
                   "FAIL [%s]: query %llu answer differs from its "
                   "individual run\n",
                   label.c_str(),
                   static_cast<unsigned long long>(results[i].id));
      ok = false;
    }
  }
  return ok;
}

std::uint64_t lost(const serve::ServeStats& s) {
  return s.queries - (s.answered + s.timed_out + s.shed + s.failed);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"lanes"});
  bench::QueryWorkload defaults;
  defaults.queries = 96;
  const auto workload = bench::parse_query_workload(options, defaults);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);
  const int lanes = bench::flag(options, "lanes", 3, 1, bench::kMaxGpus);

  const auto ds = graph::build_dataset(kDataset, seed);
  const auto& g = ds.graph;
  const auto queries = serve::generate_queries(g, workload.queries,
                                               workload.seed, g.has_values());

  core::Config cfg;
  cfg.num_gpus = kGpus;
  cfg.seed = seed;
  cfg.max_oom_regrows = 2;    // absorb short alloc-transient windows
  cfg.max_comm_retries = 3;   // absorb short transfer-transient windows
  Reference ref(g, cfg);

  bool ok = true;
  util::Table table("serve chaos: " + std::string(kDataset) + " @ " +
                    std::to_string(kGpus) + " vGPUs x " +
                    std::to_string(lanes) + " lanes, " +
                    std::to_string(queries.size()) + " queries");
  table.set_columns({"phase", "answered", "timed out", "shed", "failed",
                     "requeues", "restarts", "faults", "QPS"},
                    1);

  // ----------------------------------------------------------------
  // Phase A: fault-free — resilience layer must be inert.
  // ----------------------------------------------------------------
  serve::ServeStats first_run;
  {
    serve::ServeOptions opts;
    opts.config = cfg;
    opts.batch_width = workload.batch_width;
    opts.num_lanes = lanes;
    serve::QueryService service(g, opts);
    const auto results = service.run(queries);
    const auto& s = service.stats();
    first_run = s;
    table.add_row({std::string("fault-free"),
                   static_cast<long long>(s.answered),
                   static_cast<long long>(s.timed_out),
                   static_cast<long long>(s.shed),
                   static_cast<long long>(s.failed),
                   static_cast<long long>(s.requeues),
                   static_cast<long long>(s.lane_restarts),
                   static_cast<long long>(s.faults_injected), s.qps});
    ok &= check(s.answered == queries.size(),
                "fault-free run failed to answer everything", "A");
    ok &= check(s.requeues == 0 && s.lane_restarts == 0 && s.shed == 0 &&
                    s.failed == 0 && s.timed_out == 0 &&
                    s.faults_injected == 0 && s.lanes_quarantined == 0,
                "supervision counters nonzero in a fault-free run", "A");
    ok &= check(lost(s) == 0, "queries lost in a fault-free run", "A");
    ok &= answers_identical(queries, results, ref, "A");

    // Same service, same workload: modeled sums must be bit-identical
    // (batch-index-order summation, schedule-independent).
    (void)service.run(queries);
    const auto& s2 = service.stats();
    ok &= check(s2.modeled_compute_s == first_run.modeled_compute_s &&
                    s2.modeled_comm_s == first_run.modeled_comm_s &&
                    s2.total_edges == first_run.total_edges &&
                    s2.total_comm_bytes == first_run.total_comm_bytes &&
                    s2.batches == first_run.batches,
                "repeat fault-free run's modeled stats not bit-identical",
                "A");
  }

  // ----------------------------------------------------------------
  // Phase B: chaos — permanent device loss on lane 0 + seeded
  // transients on every lane.
  // ----------------------------------------------------------------
  {
    serve::ServeOptions opts;
    opts.config = cfg;
    opts.batch_width = workload.batch_width;
    opts.num_lanes = lanes;
    // Device 1 of lane 0's machine dies for good a few kernel events
    // in — mid-batch, so the in-flight batch must requeue to healthy
    // lanes while lane 0 restarts on replacement hardware.
    opts.fault_plan = "kernel_fault@1#4";
    opts.fault_seed = seed + 7;
    opts.max_batch_retries = 3;
    opts.max_lane_restarts = 2;
    serve::QueryService service(g, opts);
    const auto results = service.run(queries);
    const auto& s = service.stats();
    table.add_row({std::string("chaos"),
                   static_cast<long long>(s.answered),
                   static_cast<long long>(s.timed_out),
                   static_cast<long long>(s.shed),
                   static_cast<long long>(s.failed),
                   static_cast<long long>(s.requeues),
                   static_cast<long long>(s.lane_restarts),
                   static_cast<long long>(s.faults_injected), s.qps});
    ok &= check(lost(s) == 0,
                "chaos run lost queries (answered + timed_out + shed + "
                "failed != submitted)",
                "B");
    ok &= check(s.faults_injected >= 1, "no fault ever fired (vacuous)",
                "B");
    ok &= check(s.lane_restarts >= 1,
                "permanent device loss caused no lane restart", "B");
    ok &= check(s.requeues >= 1, "no batch was ever requeued", "B");
    ok &= check(s.answered >= 1, "chaos run answered nothing", "B");
    ok &= check(s.lanes_quarantined < static_cast<std::uint64_t>(lanes),
                "every lane quarantined — service did not survive", "B");
    bool other_lane_answered = false;
    for (const auto& r : results) {
      other_lane_answered |= r.status == Status::kOk && r.lane != 0;
    }
    ok &= check(other_lane_answered,
                "no answers from lanes other than the faulted one", "B");
    ok &= answers_identical(queries, results, ref, "B");
  }

  // ----------------------------------------------------------------
  // Phase C: open-loop overload — shed, don't queue without bound.
  // ----------------------------------------------------------------
  {
    serve::ServeOptions opts;
    opts.config = cfg;
    opts.batch_width = workload.batch_width;
    opts.num_lanes = lanes;
    opts.admission_capacity = 4;
    serve::QueryService service(g, opts);
    const std::size_t n = std::min<std::size_t>(64, queries.size());
    const std::span<const serve::Query> burst(queries.data(), n);
    // ~1M QPS offered: the whole burst arrives in ~n microseconds,
    // orders of magnitude above what the lanes can answer.
    const auto arrivals =
        serve::generate_poisson_arrivals(n, 1e6, workload.seed);
    const auto results = service.run_open_loop(burst, arrivals);
    const auto& s = service.stats();
    table.add_row({std::string("open-loop"),
                   static_cast<long long>(s.answered),
                   static_cast<long long>(s.timed_out),
                   static_cast<long long>(s.shed),
                   static_cast<long long>(s.failed),
                   static_cast<long long>(s.requeues),
                   static_cast<long long>(s.lane_restarts),
                   static_cast<long long>(s.faults_injected), s.qps});
    ok &= check(lost(s) == 0, "open-loop run lost queries", "C");
    ok &= check(s.shed >= 1,
                "overload never shed (admission bound not enforced)", "C");
    ok &= check(s.answered >= 1, "overload answered nothing", "C");
    ok &= check(s.failed == 0 && s.lane_restarts == 0,
                "fault-free open-loop run reported failures", "C");
    ok &= answers_identical(burst, results, ref, "C");
    std::printf("open loop: offered %.0f QPS, achieved %.0f QPS, "
                "admitted %llu / shed %llu of %zu\n",
                s.offered_qps, s.qps,
                static_cast<unsigned long long>(s.answered),
                static_cast<unsigned long long>(s.shed), n);
  }

  bench::emit(table, options);
  std::printf("stats json: %s\n",
              serve::serve_stats_to_json(first_run).c_str());
  std::printf("acceptance (fault-free inert + bit-identical, chaos "
              "zero-lost + restart + requeue + identical answers + "
              "survival, open-loop shed-not-lose): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
