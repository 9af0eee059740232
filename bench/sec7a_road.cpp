// §VII-A: the road-network pathology.
//
// "Road networks, and high-diameter, low-degree graphs in general,
// have very different scalability characteristics than power-law
// graphs. They have insufficient parallelism to saturate even 1 GPU,
// much less mGPUs; as a result, iteration overhead occupies a
// significant portion of the runtime, and we observed performance
// decreases on mGPU."
//
// This bench runs BFS and SSSP on road grids of growing size at 1-4
// GPUs and reports modeled times plus the fraction of runtime spent in
// per-iteration overhead. Expected shape: speedup < 1 on small grids,
// overhead fraction high, contrast with a power-law graph of similar
// edge count.
//
// Flags: --csv=PATH.
#include "bench_support.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);

  util::Table table("Sec. VII-A: road networks vs power-law scaling");
  table.set_columns({"graph", "algo", "D~", "1 GPU ms", "2 GPU ms",
                     "4 GPU ms", "speedup@4", "overhead frac @4"},
                    2);

  struct Workload {
    std::string name;
    graph::Graph g;
  };
  std::vector<Workload> workloads;
  workloads.push_back(
      {"road 128x128",
       graph::build_undirected(graph::make_road_grid(128, 128, 0.05, seed))});
  workloads.push_back(
      {"road 512x512",
       graph::build_undirected(graph::make_road_grid(512, 512, 0.05, seed))});
  {
    auto coo = graph::make_rmat(14, 32, graph::RmatParams::gtgraph(), seed);
    graph::assign_random_weights(coo, 0, 64, seed);
    workloads.push_back(
        {"rmat (same |E| as 512x512)", graph::build_undirected(coo)});
  }

  // Model the paper's regime: full-size road networks are ~1M-20M
  // vertices; scale the workload accordingly (x16 puts the 512x512
  // grid at ~4M intersections).
  const double ws = 16.0;

  for (auto& [name, g] : workloads) {
    const double diameter = graph::estimate_diameter(g, 4, seed);
    for (const std::string algo : {"bfs", "sssp"}) {
      std::vector<double> ms;
      double overhead_frac = 0;
      for (const int gpus : {1, 2, 4}) {
        auto cfg = bench::config_for_primitive(algo, gpus, seed);
        const auto outcome =
            bench::run_primitive(algo, g, "k40", cfg, ws);
        ms.push_back(outcome.modeled_ms);
        if (gpus == 4) {
          overhead_frac = outcome.stats.modeled_overhead_s /
                          outcome.stats.modeled_total_s();
        }
      }
      table.add_row({name, algo, diameter, ms[0], ms[1], ms[2],
                     ms[0] / ms[2], overhead_frac});
    }
  }
  std::printf("expected: road speedup@4 near or below 1 with a large "
              "overhead fraction; the rmat row scales normally\n");
  bench::emit(table, options);
  return 0;
}
