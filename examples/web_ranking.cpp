// Web-crawl ranking: PageRank + DOBFS reachability over a host-local
// web graph, using the chunk partitioner that exploits crawl locality.
//
//   ./web_ranking [--gpus=4] [--hosts=400] [--pages=64]
//                 [--trace=out.json]
//
// Demonstrates: the partitioner interface (chunk vs random on a graph
// with index locality), direction-optimizing traversal from the most
// linked page, and per-run statistics for comparing configurations.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "graph/generators.hpp"
#include "primitives/dobfs.hpp"
#include "primitives/pagerank.hpp"
#include "util/options.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/stats_io.hpp"
#include "vgpu/trace.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  util::Options options(argc, argv);
  options.check_unknown({"gpus", "hosts", "pages", "trace",
                         "fault-plan", "fault-seed", "wire-format",
                         "host-threads"});
  const core::WireFormat wire_format =
      core::parse_wire_format(options.get_string("wire-format", "raw"));
  const int host_threads =
      static_cast<int>(options.get_int("host-threads", 0));
  const int gpus = static_cast<int>(options.get_int("gpus", 4));
  const auto hosts = static_cast<VertexT>(options.get_int("hosts", 400));
  const auto pages = static_cast<VertexT>(options.get_int("pages", 64));
  const std::string trace_path = options.get_string("trace", "");

  const auto g = graph::build_undirected(
      graph::make_web(hosts, pages, /*links_per_page=*/14));
  std::printf("web crawl: %u hosts x %u pages = %u pages, %u links\n",
              hosts, pages, g.num_vertices, g.num_edges / 2);

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

  // --- PageRank under two partitioners. Crawl vertex IDs are
  // host-clustered, so chunk partitioning keeps most links local. ---
  for (const char* partitioner : {"random", "chunk"}) {
    core::Config config;
    config.num_gpus = gpus;
    config.partitioner = partitioner;
    config.wire_format = wire_format;
    config.host_threads = host_threads;
    const auto pr = prim::run_pagerank(g, machine, config);
    std::printf("PageRank [%7s partitioner]: %.2f ms modeled, "
                "%llu vertices communicated\n",
                partitioner, pr.stats.modeled_total_s() * 1e3,
                static_cast<unsigned long long>(pr.stats.total_comm_items));
  }

  // --- Rank pages and traverse from the top one. ---
  core::Config config;
  config.num_gpus = gpus;
  config.wire_format = wire_format;
  config.host_threads = host_threads;
  const auto pr = prim::run_pagerank(g, machine, config);
  const auto top = static_cast<VertexT>(
      std::max_element(pr.rank.begin(), pr.rank.end()) - pr.rank.begin());
  std::printf("\ntop page: vertex %u (host %u), rank %.6f\n", top,
              top / pages, pr.rank[top]);

  const auto reach = prim::run_dobfs(g, top, machine, config);
  VertexT reached = 0;
  for (const VertexT label : reach.labels) {
    if (label != kInvalidVertex) ++reached;
  }
  std::printf("DOBFS from top page: reached %u pages (%.1f%%), "
              "%d direction switch(es), %.2f ms modeled\n",
              reached, 100.0 * reached / g.num_vertices,
              reach.direction_switches,
              reach.stats.modeled_total_s() * 1e3);

  if (!trace_path.empty()) {
    // All runs above share one machine, so the trace holds their
    // supersteps back to back on one timeline.
    tracer.write_chrome_trace(trace_path);
    vgpu::save_run_stats_json(trace_path + ".stats.json", reach.stats, {},
                              &tracer);
    std::printf("trace written to %s (+ .stats.json)\n",
                trace_path.c_str());
  }
  return 0;
}
