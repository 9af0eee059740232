// Serve-layer benchmark + exit gate: batched multi-source traversal
// vs individual runs, and QueryService throughput/latency across vGPU
// counts (docs/architecture.md §13).
//
// Protocol, per gate dataset (one rmat + one social analog, the
// families the paper's §V evaluates):
//   * pick 64 distinct sources deterministically (--query-seed);
//   * run ONE 64-source MsBfs batch at 4 vGPUs and the 64 individual
//     BFS runs it replaces, identical config;
//   * gate >= 3x modeled W+H reduction (sum of individual
//     modeled_compute_s + modeled_comm_s over one batch's), and check
//     every slot's depths bit-identical to its individual run — the
//     batch may be cheaper only by sharing work, never by changing
//     answers;
//   * non-vacuous: the gate is earned only when the individual
//     baseline models nonzero W+H AND the batch actually shipped
//     inter-GPU bytes (a 1-vGPU or empty-frontier degenerate run
//     passes nothing).
// All gate quantities are modeled (seed-deterministic); no wall-clock
// thresholds.
//
// Then the serving sweep: QueryService on the social analog at
// {1, 2, 4, 8} vGPUs per lane, a mixed reachability / BFS-depth /
// SSSP-distance workload (--queries, --query-seed, --batch-width),
// reporting batches, QPS, and p50/p99 latency (wall-clock,
// informational — QPS varies with host load; answers do not). The
// 4-vGPU row runs under a Tracer: every span must carry a batch tag
// and the distinct tags must equal the batch count, and the
// per-category modeled-time attribution is printed.
//
// Finally an open-loop row (informational): the same workload arriving
// on a Poisson clock at --offered-qps (default 2000), admitted at
// arrival with a bounded pending set, reporting offered vs achieved
// QPS and the shed count (docs/architecture.md §15).
//
// Flags: common set (--queries/--query-seed/--batch-width documented
// in bench_support.hpp) plus --lanes=N concurrent lanes for the sweep
// (default 2) and --offered-qps=N for the open-loop row. --trace=PATH
// writes the 4-vGPU sweep row's batch-tagged Chrome trace (this binary
// drives the serve layer directly, so the common harness's first-run
// capture does not apply).
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_support.hpp"
#include "primitives/bfs.hpp"
#include "primitives/multi_source.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/trace.hpp"

namespace {

using namespace mgg;

constexpr int kGateGpus = 4;
constexpr double kMinRatio = 3.0;
const char* const kGateDatasets[] = {"rmat_n20_512", "soc-orkut"};
const char* const kSweepDataset = "soc-orkut";

std::vector<VertexT> distinct_sources(const graph::Graph& g, std::size_t n,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::unordered_set<VertexT> seen;
  std::vector<VertexT> srcs;
  while (srcs.size() < n) {
    const auto v = static_cast<VertexT>(rng.next_below(g.num_vertices));
    if (seen.insert(v).second) srcs.push_back(v);
  }
  return srcs;
}

bool check(bool ok, const char* what, const std::string& label) {
  if (!ok) std::fprintf(stderr, "FAIL [%s]: %s\n", label.c_str(), what);
  return ok;
}

core::Config config_for(int gpus, std::uint64_t seed) {
  core::Config cfg;
  cfg.num_gpus = gpus;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"lanes", "offered-qps"});
  const auto workload = bench::parse_query_workload(options);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);
  const int lanes = bench::flag(options, "lanes", 2, 1, bench::kMaxGpus);
  const double offered_qps = bench::flag(options, "offered-qps", 2000, 1);

  bool ok = true;

  // ----------------------------------------------------------------
  // Gate: one 64-source batch vs the 64 runs it replaces, at 4 vGPUs.
  // ----------------------------------------------------------------
  util::Table gate_table("serve: batched multi-source BFS vs individual (" +
                         std::to_string(kGateGpus) + " vGPUs, modeled)");
  gate_table.set_columns({"dataset", "indiv W+H ms", "batch W+H ms",
                          "ratio", "batch comm B", "identical"},
                         1);
  bool gate_earned = false;
  for (const char* name : kGateDatasets) {
    const auto ds = graph::build_dataset(name, seed);
    const auto& g = ds.graph;
    const auto srcs =
        distinct_sources(g, prim::kMaxBatchWidth, workload.seed);
    const auto cfg = config_for(kGateGpus, seed);
    auto machine = vgpu::Machine::create("k40", kGateGpus);

    const auto batched = prim::run_msbfs(g, srcs, machine, cfg);
    double individual_s = 0;
    bool identical = true;
    for (int slot = 0; slot < batched.width; ++slot) {
      const auto r = prim::run_bfs(g, srcs[slot], machine, cfg);
      individual_s += r.stats.modeled_compute_s + r.stats.modeled_comm_s;
      const auto got = batched.slot(slot, g.num_vertices);
      identical &= std::equal(r.labels.begin(), r.labels.end(), got.begin());
    }
    const double batch_s =
        batched.stats.modeled_compute_s + batched.stats.modeled_comm_s;
    const double ratio = batch_s > 0 ? individual_s / batch_s : 0.0;
    gate_table.add_row({std::string(name), individual_s * 1e3,
                        batch_s * 1e3, ratio,
                        static_cast<long long>(
                            batched.stats.total_comm_bytes),
                        std::string(identical ? "yes" : "NO")});
    ok &= check(identical,
                "batched depths differ from individual runs", name);
    // Non-vacuity: a run that models no work or ships no bytes at 4
    // vGPUs cannot earn the gate.
    if (individual_s > 0 && batch_s > 0 &&
        batched.stats.total_comm_bytes > 0 &&
        batched.stats.iterations > 0) {
      gate_earned = true;
      ok &= check(ratio >= kMinRatio,
                  "batched W+H reduction below the 3x gate", name);
    }
  }
  ok &= check(gate_earned, "gate never measured (degenerate workload?)",
              "gate");
  gate_table.print();

  // ----------------------------------------------------------------
  // Serving sweep: QPS + p50/p99 across vGPU counts.
  // ----------------------------------------------------------------
  const auto ds = graph::build_dataset(kSweepDataset, seed);
  const auto queries = serve::generate_queries(
      ds.graph, workload.queries, workload.seed, ds.graph.has_values());
  util::Table sweep_table(
      std::string("serve: query throughput on ") + kSweepDataset + " (" +
      std::to_string(lanes) + " lanes, " +
      std::to_string(workload.queries) + " queries, batch width " +
      std::to_string(workload.batch_width) + ")");
  sweep_table.set_columns({"vGPUs", "batches", "QPS", "p50 ms", "p99 ms",
                           "W ms", "H ms"},
                          1);
  vgpu::Tracer tracer;
  for (const int gpus : {1, 2, 4, 8}) {
    serve::ServeOptions opts;
    opts.config = config_for(gpus, seed);
    opts.batch_width = workload.batch_width;
    opts.num_lanes = lanes;
    opts.tracer = gpus == kGateGpus ? &tracer : nullptr;
    serve::QueryService service(ds.graph, opts);
    const auto results = service.run(queries);
    ok &= check(results.size() == queries.size(),
                "result count != query count",
                std::to_string(gpus) + " vGPUs");
    const auto& s = service.stats();
    sweep_table.add_row({static_cast<long long>(gpus),
                         static_cast<long long>(s.batches), s.qps,
                         s.p50_ms, s.p99_ms, s.modeled_compute_s * 1e3,
                         s.modeled_comm_s * 1e3});
    if (gpus == kGateGpus) {
      // Tracer attribution: every serve-mode span is batch-tagged and
      // the tags cover exactly the batches run on the traced lane.
      const auto spans = tracer.sorted_spans();
      ok &= check(!spans.empty(), "traced lane recorded no spans",
                  "trace");
      std::unordered_set<std::uint64_t> tags;
      std::map<std::string, double> by_category;
      bool all_tagged = true;
      for (const auto& span : spans) {
        all_tagged &= span.batch > 0;
        tags.insert(span.batch);
        by_category[to_string(span.category)] +=
            (span.end_s - span.start_s) * 1e3;
      }
      ok &= check(all_tagged, "untagged span in a serve-mode trace",
                  "trace");
      ok &= check(tags.size() <= s.batches,
                  "more batch tags than batches", "trace");
      std::printf("trace (4 vGPUs, lane 0): %zu spans, %zu batch tags, "
                  "%llu dropped\n",
                  spans.size(), tags.size(),
                  static_cast<unsigned long long>(tracer.dropped_spans()));
      for (const auto& [category, ms] : by_category) {
        std::printf("  %-9s %10.3f ms modeled\n", category.c_str(), ms);
      }
    }
  }
  bench::emit(sweep_table, options);

  // ----------------------------------------------------------------
  // Open-loop arrivals: offered vs achieved QPS (informational).
  // Queries arrive on a Poisson clock instead of a closed drain; the
  // service admits at arrival time and sheds (reject-newest) once
  // admission_capacity queries are pending. Wall-clock dependent, so
  // no thresholds — the only hard check is lossless accounting.
  // ----------------------------------------------------------------
  {
    serve::ServeOptions opts;
    opts.config = config_for(kGateGpus, seed);
    opts.batch_width = workload.batch_width;
    opts.num_lanes = lanes;
    opts.admission_capacity = 4 * static_cast<std::size_t>(
                                      workload.batch_width);
    const auto arrivals = serve::generate_poisson_arrivals(
        queries.size(), offered_qps, workload.seed);
    serve::QueryService service(ds.graph, opts);
    const auto results = service.run_open_loop(queries, arrivals);
    const auto& s = service.stats();
    const auto lost = s.queries -
                      (s.answered + s.timed_out + s.shed + s.failed);
    ok &= check(results.size() == queries.size() && lost == 0,
                "open-loop run lost queries", "open-loop");
    std::printf("open-loop (%d vGPUs, %d lanes, capacity %zu): offered "
                "%.0f QPS, achieved %.0f QPS, answered %llu, shed %llu, "
                "p99 %.2f ms\n",
                kGateGpus, lanes, opts.admission_capacity, s.offered_qps,
                s.qps, static_cast<unsigned long long>(s.answered),
                static_cast<unsigned long long>(s.shed), s.p99_ms);
  }

  const std::string trace_path = options.get_string("trace", "");
  if (!trace_path.empty()) {
    tracer.write_chrome_trace(trace_path);
    std::printf("trace written to %s (4-vGPU sweep row, batch-tagged)\n",
                trace_path.c_str());
  }

  std::printf("acceptance (>= %.0fx modeled W+H reduction batched vs "
              "individual at %d vGPUs on rmat + social, bit-identical "
              "answers, batch-tagged trace): %s\n",
              kMinRatio, kGateGpus, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
