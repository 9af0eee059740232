// Fig. 3: memory consumption of the four allocation schemes (§VI-B)
// running BFS on kron, soc-orkut, and uk-2002.
//
// Paper finding: max allocation (worst-case |E| buffers) uses several
// times the memory of the others; just-enough is the smallest,
// prealloc+fusion close behind, fixed in between — and all schemes
// have near-identical computation times.
//
// We report the summed peak device-memory usage across GPUs, both at
// analog scale (measured) and extrapolated to the paper's full-size
// dataset (x scale factor) for comparison with the figure's GB axis.
//
// Flags: --gpus=N (default 4), --csv=PATH.
#include <cstdio>

#include "bench_support.hpp"
#include "primitives/bfs.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"gpus"});
  const int gpus = bench::flag(options, "gpus", 4, 1, bench::kMaxGpus);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);

  const std::vector<std::string> datasets = {"kron_n24_32", "soc-orkut",
                                             "uk-2002"};
  const std::vector<vgpu::AllocationScheme> schemes = {
      vgpu::AllocationScheme::kJustEnough,
      vgpu::AllocationScheme::kFixedPrealloc,
      vgpu::AllocationScheme::kMax,
      vgpu::AllocationScheme::kPreallocFusion,
  };

  util::Table table("Fig. 3: BFS peak memory by allocation scheme (" +
                    std::to_string(gpus) + " GPUs)");
  table.set_columns({"dataset", "scheme", "peak MB (analog)",
                     "extrapolated GB (full size)", "modeled ms",
                     "reallocs"},
                    2);

  for (const auto& name : datasets) {
    const auto ds = graph::build_dataset(name, seed);
    const double scale = bench::dataset_scale(ds);
    for (const auto scheme : schemes) {
      auto cfg = bench::config_for_primitive("bfs", gpus, seed);
      cfg.scheme = scheme;

      auto machine = vgpu::Machine::create("k40", gpus);
      machine.set_workload_scale(scale);

      prim::BfsProblem problem;
      problem.init(ds.graph, machine, cfg);
      prim::BfsEnactor enactor(problem);
      enactor.reset(bench::pick_source(ds.graph));
      const auto stats = enactor.enact();

      std::size_t peak_bytes = 0;
      for (int gpu = 0; gpu < gpus; ++gpu) {
        peak_bytes += machine.device(gpu).memory().peak_bytes();
      }
      std::size_t reallocs = 0;
      for (int gpu = 0; gpu < gpus; ++gpu) {
        reallocs += enactor.slice(gpu).frontier.realloc_count();
      }

      table.add_row({name, vgpu::to_string(scheme),
                     static_cast<double>(peak_bytes) / (1 << 20),
                     static_cast<double>(peak_bytes) * scale / (1 << 30),
                     stats.modeled_total_s() * 1e3,
                     static_cast<long long>(reallocs)});
    }
  }
  bench::emit(table, options);
  return 0;
}
