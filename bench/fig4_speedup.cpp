// Fig. 4: multi-GPU speedup over 1-GPU performance for BC, BFS, CC,
// DOBFS, PR, and SSSP — geometric mean of per-dataset runtime speedups
// on the 6x K40 machine.
//
// Paper reference values at 6 GPUs: BFS 2.63x, SSSP 2.57x, CC 2.00x,
// BC 1.96x, PR 3.86x; DOBFS stays mostly flat (communication bound).
//
// Flags: --suite=fast|default|full, --max-gpus=N (default 6), --csv=PATH.
#include <cstdio>
#include <map>

#include "bench_support.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"max-gpus"});
  const auto suite = options.get_string("suite", "default");
  const int max_gpus = bench::flag(options, "max-gpus", 6, 1, bench::kMaxGpus);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);
  const std::vector<std::string> primitives = {"bc", "bfs",  "cc",
                                               "dobfs", "pr", "sssp"};

  const auto datasets = bench::suite_datasets(suite);
  std::printf("Fig. 4 reproduction: geomean mGPU speedup over 1 GPU "
              "(K40), %zu datasets [%s suite]\n",
              datasets.size(), suite.c_str());

  // modeled_ms[primitive][dataset][gpus]
  std::map<std::string, std::map<std::string, std::map<int, double>>> ms;
  for (const auto& name : datasets) {
    const auto ds = graph::build_dataset(name, seed);
    const double scale = bench::dataset_scale(ds);
    for (const auto& primitive : primitives) {
      for (int gpus = 1; gpus <= max_gpus; ++gpus) {
        auto cfg = bench::config_for_primitive(primitive, gpus, seed);
        const auto outcome =
            bench::run_primitive(primitive, ds.graph, "k40", cfg, scale);
        ms[primitive][name][gpus] = outcome.modeled_ms;
      }
    }
    std::printf("  measured %s (|V|=%u |E|=%u)\n", name.c_str(),
                ds.graph.num_vertices, ds.graph.num_edges);
  }

  util::Table table("Fig. 4: geomean speedup vs 1 GPU");
  std::vector<std::string> cols = {"primitive"};
  for (int gpus = 2; gpus <= max_gpus; ++gpus) {
    cols.push_back(std::to_string(gpus) + " GPUs");
  }
  cols.push_back("paper@6");
  table.set_columns(cols, 2);

  const std::map<std::string, double> paper_at_6 = {
      {"bfs", 2.63}, {"sssp", 2.57}, {"cc", 2.00},
      {"bc", 1.96},  {"pr", 3.86},   {"dobfs", 1.0}};

  for (const auto& primitive : primitives) {
    std::vector<util::Cell> row = {primitive};
    for (int gpus = 2; gpus <= max_gpus; ++gpus) {
      std::vector<double> speedups;
      for (const auto& name : datasets) {
        speedups.push_back(ms[primitive][name][1] /
                           ms[primitive][name][gpus]);
      }
      row.emplace_back(util::geometric_mean(speedups));
    }
    row.emplace_back(paper_at_6.at(primitive));
    table.add_row(std::move(row));
  }
  bench::emit(table, options);
  return 0;
}
