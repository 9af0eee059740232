// Quickstart: generate a power-law graph, run multi-GPU BFS, and look
// at the result and the run statistics.
//
//   ./quickstart [--gpus=4] [--scale=12] [--edge-factor=16]
//                [--trace=out.json]
//
// This walks through the full public API surface in ~60 lines:
// generator -> graph -> machine -> config -> primitive -> stats.
// --trace captures a Chrome trace of the run (open in
// chrome://tracing or ui.perfetto.dev) plus a stats JSON with the
// per-superstep bottleneck report.
#include <cstdio>

#include "graph/generators.hpp"
#include "primitives/bfs.hpp"
#include "util/options.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/stats_io.hpp"
#include "vgpu/trace.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  util::Options options(argc, argv);
  options.check_unknown({"gpus", "scale", "edge-factor", "trace",
                         "fault-plan", "fault-seed", "wire-format",
                         "host-threads"});
  const int gpus = static_cast<int>(options.get_int("gpus", 4));
  const int scale = static_cast<int>(options.get_int("scale", 12));
  const double edge_factor = options.get_double("edge-factor", 16);
  const std::string trace_path = options.get_string("trace", "");

  // 1. Build a graph. Generators return edge lists (COO);
  //    build_undirected() cleans them (self-loops, duplicates,
  //    symmetrization) and converts to CSR.
  const auto g = graph::build_undirected(
      graph::make_rmat(scale, edge_factor));
  std::printf("graph: %u vertices, %u edges, avg degree %.1f\n",
              g.num_vertices, g.num_edges, g.average_degree());

  // 2. Create a machine: N virtual GPUs plus the PCIe interconnect.
  //    Presets: "k40", "k80", "p100".
  auto machine = vgpu::Machine::create("k40", gpus);
  const auto fault_injector = vgpu::make_injector_from_flags(
      options.get_string("fault-plan", ""),
      static_cast<std::uint64_t>(options.get_int("fault-seed", 0)), gpus);
  if (fault_injector != nullptr) {
    machine.set_fault_injector(fault_injector.get());
    std::printf("fault injection armed: %s\n",
                fault_injector->plan().to_string().c_str());
  }

  // Optional: attach a tracer. Tracing is observation-only — results
  // and modeled times are identical with or without it.
  vgpu::Tracer tracer;
  if (!trace_path.empty()) machine.set_tracer(&tracer);

  // 3. Configure the run. The defaults already follow the paper
  //    (random partitioner, duplicate-all, selective communication,
  //    prealloc+fusion allocation); everything is overridable.
  core::Config config;
  config.num_gpus = gpus;
  config.mark_predecessors = true;
  config.wire_format =
      core::parse_wire_format(options.get_string("wire-format", "raw"));
  // Host worker threads (0 = auto). Wall-clock only: results and
  // modeled times are bit-identical at any value.
  config.host_threads = static_cast<int>(options.get_int("host-threads", 0));

  // 4. Run BFS from vertex 0.
  const auto result = prim::run_bfs(g, /*src=*/0, machine, config);

  // 5. Inspect results and statistics.
  VertexT reached = 0;
  VertexT deepest = 0;
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    if (result.labels[v] != kInvalidVertex) {
      ++reached;
      deepest = std::max(deepest, result.labels[v]);
    }
  }
  std::printf("BFS from 0 reached %u of %u vertices, max depth %u\n",
              reached, g.num_vertices, deepest);
  const auto& stats = result.stats;
  std::printf("iterations (BSP supersteps): %llu\n",
              static_cast<unsigned long long>(stats.iterations));
  std::printf("edge work items:             %llu\n",
              static_cast<unsigned long long>(stats.total_edges));
  std::printf("communicated vertices (H):   %llu\n",
              static_cast<unsigned long long>(stats.total_comm_items));
  std::printf("modeled time on %d K40s:      %.3f ms (%.2f GTEPS)\n",
              gpus, stats.modeled_total_s() * 1e3,
              stats.gteps(g.num_edges));

  // 6. Export the trace and the bottleneck-attribution report.
  if (!trace_path.empty()) {
    tracer.write_chrome_trace(trace_path);
    vgpu::save_run_stats_json(trace_path + ".stats.json", stats, {},
                              &tracer);
    std::printf("trace written to %s (+ .stats.json)\n",
                trace_path.c_str());
  }
  return 0;
}
