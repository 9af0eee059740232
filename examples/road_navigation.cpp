// Road-network navigation: SSSP on a high-diameter grid — the graph
// family the paper calls out as the hard case for (multi-)GPU
// traversal (§VII-A: one iteration of even a large road network
// doesn't have enough work to keep one GPU busy, so iteration overhead
// dominates and mGPU can be slower than 1 GPU).
//
//   ./road_navigation [--gpus=2] [--width=128] [--height=128]
//                     [--trace=out.json]
//
// The example runs the same route query on 1 GPU and on N GPUs and
// prints both modeled times, making the paper's observation concrete.
#include <cstdio>
#include <vector>

#include "graph/generators.hpp"
#include "primitives/sssp.hpp"
#include "util/options.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/stats_io.hpp"
#include "vgpu/trace.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  util::Options options(argc, argv);
  options.check_unknown({"gpus", "width", "height", "trace",
                         "fault-plan", "fault-seed", "wire-format",
                         "host-threads"});
  const int gpus = static_cast<int>(options.get_int("gpus", 2));
  const auto width = static_cast<VertexT>(options.get_int("width", 128));
  const auto height = static_cast<VertexT>(options.get_int("height", 128));
  const std::string trace_path = options.get_string("trace", "");

  const auto g = graph::build_undirected(
      graph::make_road_grid(width, height, /*drop=*/0.05));
  std::printf("road network: %ux%u grid, %u intersections, %u segments\n",
              width, height, g.num_vertices, g.num_edges / 2);

  const VertexT origin = 0;                         // top-left corner
  const VertexT destination = g.num_vertices - 1;   // bottom-right corner

  core::Config config;
  config.num_gpus = gpus;
  config.mark_predecessors = true;
  config.wire_format =
      core::parse_wire_format(options.get_string("wire-format", "raw"));
  config.host_threads = static_cast<int>(options.get_int("host-threads", 0));

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
  const auto route = prim::run_sssp(g, origin, machine, config);
  if (!trace_path.empty()) {
    tracer.write_chrome_trace(trace_path);
    vgpu::save_run_stats_json(trace_path + ".stats.json", route.stats, {},
                              &tracer);
    std::printf("trace written to %s (+ .stats.json)\n",
                trace_path.c_str());
  }

  if (std::isinf(route.dist[destination])) {
    std::printf("destination unreachable (unlucky drop pattern)\n");
    return 0;
  }
  // Reconstruct the route from the shortest-path tree.
  std::vector<VertexT> path;
  for (VertexT v = destination; v != origin; v = route.preds[v]) {
    path.push_back(v);
    if (path.size() > g.num_vertices) {
      std::printf("error: predecessor cycle\n");
      return 1;
    }
  }
  path.push_back(origin);
  std::printf("route %u -> %u: cost %.0f over %zu segments\n", origin,
              destination, route.dist[destination], path.size() - 1);

  // The paper's point: compare against the 1-GPU run.
  core::Config config1 = config;
  config1.num_gpus = 1;
  auto machine1 = vgpu::Machine::create("k40", 1);
  const auto single = prim::run_sssp(g, origin, machine1, config1);

  std::printf("\nmodeled times (the high-diameter problem, sec. VII-A):\n");
  std::printf("  1 GPU : %8.2f ms over %llu iterations\n",
              single.stats.modeled_total_s() * 1e3,
              static_cast<unsigned long long>(single.stats.iterations));
  std::printf("  %d GPUs: %8.2f ms over %llu iterations (%.2fx)\n", gpus,
              route.stats.modeled_total_s() * 1e3,
              static_cast<unsigned long long>(route.stats.iterations),
              single.stats.modeled_total_s() /
                  route.stats.modeled_total_s());
  std::printf("  iteration overhead dominates: every BSP superstep "
              "costs ~%.0f us even with tiny frontiers\n",
              vgpu::sync_overhead_seconds(gpus) * 1e6);
  return 0;
}
