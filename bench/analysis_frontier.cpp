// Analysis: per-iteration frontier evolution and time breakdown for
// BFS vs DOBFS — the §VI-A mechanics made visible.
//
// For a power-law graph, plain BFS's frontier explodes at level 2-3
// (touching most of |E|), which is exactly where DOBFS switches to the
// backward direction and the per-iteration edge work collapses to the
// unvisited scan. The per-iteration records also break modeled time
// into compute / communication / synchronization, showing DOBFS's
// communication-bound profile.
//
// Flags: --gpus=N (default 4), --dataset=NAME, --csv=PATH,
//        --json=PREFIX (writes PREFIX.bfs.json / PREFIX.dobfs.json
//        with the full per-iteration trace).
#include "bench_support.hpp"
#include "primitives/bfs.hpp"
#include "primitives/dobfs.hpp"
#include "vgpu/stats_io.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"dataset", "gpus", "json"});
  const int gpus = bench::flag(options, "gpus", 4, 1, bench::kMaxGpus);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);
  const auto name = options.get_string("dataset", "soc-orkut");

  const auto ds = graph::build_dataset(name, seed);
  const double scale = bench::dataset_scale(ds);
  const VertexT src = bench::pick_source(ds.graph);

  util::Table table("Frontier evolution: BFS vs DOBFS on " + name + " (" +
                    std::to_string(gpus) + " GPUs)");
  table.set_columns({"primitive", "iter", "frontier", "edge work",
                     "H items", "compute ms", "comm ms", "sync ms"},
                    3);

  for (const std::string primitive : {"bfs", "dobfs"}) {
    auto cfg = bench::config_for_primitive(primitive, gpus, seed);
    auto machine = vgpu::Machine::create("k40", gpus);
    machine.set_workload_scale(scale);

    std::vector<vgpu::IterationRecord> records;
    vgpu::RunStats stats;
    if (primitive == "bfs") {
      prim::BfsProblem problem;
      problem.init(ds.graph, machine, cfg);
      prim::BfsEnactor enactor(problem);
      enactor.reset(src);
      stats = enactor.enact();
      records = enactor.iteration_records();
    } else {
      prim::DobfsProblem problem;
      problem.init(ds.graph, machine, cfg);
      prim::DobfsEnactor enactor(problem);
      enactor.reset(src);
      stats = enactor.enact();
      records = enactor.iteration_records();
    }
    const std::string json_prefix = options.get_string("json", "");
    if (!json_prefix.empty()) {
      vgpu::save_run_stats_json(json_prefix + "." + primitive + ".json",
                                stats, records);
    }
    for (const auto& r : records) {
      table.add_row({primitive, static_cast<long long>(r.iteration),
                     static_cast<long long>(r.frontier_total),
                     static_cast<long long>(r.edges),
                     static_cast<long long>(r.comm_items),
                     r.compute_s * 1e3, r.comm_s * 1e3,
                     r.overhead_s * 1e3});
    }
  }
  bench::emit(table, options);
  return 0;
}
