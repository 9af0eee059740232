// §VII-C (Daga et al. comparison): discrete GPU vs integrated APU.
//
// The paper reports ~5-10x the TEPS of Hybrid++(CPU+dGPU) on 8 of 9
// graphs, with the road network the exception where the hybrid's lack
// of PCIe transfers wins ("Gunrock's performance and efficiency are
// only half of Daga's"). We reproduce the shape with an APU GpuModel
// (shared DDR3 bandwidth, small launch overhead, no PCIe) running the
// same BFS as the K40.
//
// Flags: --csv=PATH.
#include "bench_support.hpp"
#include "graph/generators.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);

  util::Table table("Sec. VII-C: 1x K40 vs APU, BFS (modeled)");
  table.set_columns({"graph", "K40 ms", "APU ms", "K40/APU speedup",
                     "paper says"},
                    2);

  struct Row {
    std::string name;
    graph::Graph g;
    double scale;
    const char* paper;
  };
  std::vector<Row> rows;
  for (const char* name :
       {"soc-LiveJournal1", "hollywood-2009", "indochina-2004"}) {
    auto ds = graph::build_dataset(name, seed);
    const double scale = bench::dataset_scale(ds);
    rows.push_back({name, std::move(ds.graph), scale, "5-10x"});
  }
  rows.push_back({"road 512x512",
                  graph::build_undirected(
                      graph::make_road_grid(512, 512, 0.05, seed)),
                  16.0, "~0.5x (APU wins)"});

  for (const auto& row : rows) {
    auto cfg_gpu = bench::config_for_primitive("bfs", 1, seed);
    const auto k40 =
        bench::run_primitive("bfs", row.g, "k40", cfg_gpu, row.scale);
    auto cfg_apu = bench::config_for_primitive("bfs", 1, seed);
    const auto apu =
        bench::run_primitive("bfs", row.g, "apu", cfg_apu, row.scale);
    table.add_row({row.name, k40.modeled_ms, apu.modeled_ms,
                   apu.modeled_ms / k40.modeled_ms, row.paper});
  }
  bench::emit(table, options);
  return 0;
}
