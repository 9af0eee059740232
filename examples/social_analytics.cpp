// Social-network analytics: the workload the paper's introduction
// motivates — find the influencers and community structure of a large
// social graph, on multiple GPUs.
//
//   ./social_analytics [--gpus=4] [--vertices=20000] [--epv=12]
//                      [--trace=out.json] [--queries=200]
//                      [--query-seed=5] [--batch-width=64]
//
// Pipeline:
//   1. PageRank       -> global influence ranking
//   2. CC             -> community (component) structure
//   3. BC (sampled)   -> brokerage: who sits on the most paths
//   4. QueryService   -> interactive "are we connected / how far"
//                        point queries, batched 64 sources at a time
#include <algorithm>
#include <cstdio>
#include <vector>

#include "graph/generators.hpp"
#include "primitives/bc.hpp"
#include "primitives/cc.hpp"
#include "primitives/pagerank.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "util/options.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/stats_io.hpp"
#include "vgpu/trace.hpp"

namespace {

void print_top(const char* title, const std::vector<mgg::ValueT>& score,
               int k) {
  std::vector<mgg::VertexT> order(score.size());
  for (std::size_t v = 0; v < score.size(); ++v)
    order[v] = static_cast<mgg::VertexT>(v);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](auto a, auto b) { return score[a] > score[b]; });
  std::printf("%s\n", title);
  for (int i = 0; i < k; ++i) {
    std::printf("  #%d vertex %u (%.6f)\n", i + 1, order[i],
                score[order[i]]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mgg;
  util::Options options(argc, argv);
  options.check_unknown({"gpus", "vertices", "epv", "trace",
                         "fault-plan", "fault-seed", "wire-format",
                         "host-threads", "queries", "query-seed",
                         "batch-width"});
  const int gpus = static_cast<int>(options.get_int("gpus", 4));
  const auto vertices =
      static_cast<VertexT>(options.get_int("vertices", 20000));
  const int epv = static_cast<int>(options.get_int("epv", 12));
  const std::string trace_path = options.get_string("trace", "");

  const auto g = graph::build_undirected(graph::make_social(vertices, epv));
  std::printf("social graph: %u members, %u friendships\n", g.num_vertices,
              g.num_edges / 2);

  auto machine = vgpu::Machine::create("k40", gpus);
  const auto fault_injector = vgpu::make_injector_from_flags(
      options.get_string("fault-plan", ""),
      static_cast<std::uint64_t>(options.get_int("fault-seed", 0)), gpus);
  if (fault_injector != nullptr) {
    machine.set_fault_injector(fault_injector.get());
    std::printf("fault injection armed: %s\n",
                fault_injector->plan().to_string().c_str());
  }
  vgpu::Tracer tracer;
  if (!trace_path.empty()) machine.set_tracer(&tracer);
  core::Config config;
  config.num_gpus = gpus;
  config.wire_format =
      core::parse_wire_format(options.get_string("wire-format", "raw"));
  config.host_threads = static_cast<int>(options.get_int("host-threads", 0));

  // --- 1. Influence: PageRank. ---
  prim::PagerankOptions pr_options;
  pr_options.threshold = 0.0005f;
  const auto pr = prim::run_pagerank(g, machine, config, pr_options);
  print_top("top influencers (PageRank):", pr.rank, 5);
  std::printf("  converged after %llu iterations, modeled %.2f ms\n\n",
              static_cast<unsigned long long>(pr.stats.iterations),
              pr.stats.modeled_total_s() * 1e3);

  // --- 2. Communities: connected components. ---
  const auto cc = prim::run_cc(g, machine, config);
  std::printf("community structure: %u connected components\n",
              cc.num_components);
  std::vector<VertexT> sizes(g.num_vertices, 0);
  for (const VertexT label : cc.comp) ++sizes[label];
  const auto largest = std::max_element(sizes.begin(), sizes.end());
  std::printf("  largest component: %u members (%.1f%%), modeled %.2f ms\n\n",
              *largest, 100.0 * *largest / g.num_vertices,
              cc.stats.modeled_total_s() * 1e3);

  // --- 3. Brokers: betweenness centrality, sampled sources. ---
  std::vector<VertexT> sources;
  for (VertexT v = 0; v < g.num_vertices && sources.size() < 16;
       v += g.num_vertices / 16) {
    if (g.degree(v) > 0) sources.push_back(v);
  }
  const auto bc = prim::run_bc(g, machine, config, sources);
  print_top("top brokers (betweenness, 16-source sample):", bc.bc, 5);
  std::printf("  %llu BSP iterations across %zu sources\n\n",
              static_cast<unsigned long long>(bc.total_iterations),
              sources.size());

  // --- 4. Interactive queries: "are A and B connected, and how far
  // apart?" served in 64-source batches (docs/architecture.md §13). ---
  const auto num_queries =
      static_cast<std::size_t>(options.get_int("queries", 200));
  const auto query_seed =
      static_cast<std::uint64_t>(options.get_int("query-seed", 5));
  serve::ServeOptions serve_options;
  serve_options.config = config;
  serve_options.batch_width =
      static_cast<int>(options.get_int("batch-width", 64));
  serve::QueryService service(g, serve_options);
  const auto queries =
      serve::generate_queries(g, num_queries, query_seed, g.has_values());
  const auto answers = service.run(queries);
  std::size_t reachable = 0;
  for (const auto& a : answers) reachable += a.reachable ? 1 : 0;
  const auto& ss = service.stats();
  std::printf("point-query serving: %zu queries in %llu batches, "
              "%zu reachable\n",
              answers.size(),
              static_cast<unsigned long long>(ss.batches), reachable);
  std::printf("  %.0f QPS, p50 %.2f ms, p99 %.2f ms "
              "(batched W %.2f ms, H %.2f ms modeled)\n",
              ss.qps, ss.p50_ms, ss.p99_ms, ss.modeled_compute_s * 1e3,
              ss.modeled_comm_s * 1e3);

  if (!trace_path.empty()) {
    // One timeline for the whole pipeline: PageRank, CC, and every BC
    // source's supersteps appear back to back.
    tracer.write_chrome_trace(trace_path);
    vgpu::save_run_stats_json(trace_path + ".stats.json", bc.stats, {},
                              &tracer);
    std::printf("trace written to %s (+ .stats.json)\n",
                trace_path.c_str());
  }
  return 0;
}
