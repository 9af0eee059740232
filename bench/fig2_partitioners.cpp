// Fig. 2: performance impact of the partitioner on 3 primitives x 3
// datasets, on 4 GPUs. Bars are speedup over the 1-GPU run of the same
// primitive/dataset, one bar per partitioner in {random, biasrandom,
// metis}.
//
// Paper finding: random does fairly well everywhere (best load
// balance); biased random is very close; metis wins only in a few
// spots with small margins and takes far longer to partition — which
// is why every other experiment uses random.
//
// Flags: --gpus=N (default 4), --csv=PATH. The table holds modeled
// speedups only; each workload's host partitioning times (wall clock)
// go to stderr.
#include <cstdio>

#include "bench_support.hpp"
#include "partition/partitioner.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"gpus"});
  const int gpus = bench::flag(options, "gpus", 4, 1, bench::kMaxGpus);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);

  // The paper's Fig. 2 datasets: kron, soc-orkut, uk-2002.
  const std::vector<std::string> datasets = {"kron_n24_32", "soc-orkut",
                                             "uk-2002"};
  const std::vector<std::string> primitives = {"bfs", "dobfs", "pr"};
  const std::vector<std::string> partitioners = {"random", "biasrandom",
                                                 "metis"};

  util::Table table("Fig. 2: speedup on " + std::to_string(gpus) +
                    " GPUs by partition strategy");
  table.set_columns({"workload", "random", "biasrandom", "metis"}, 2);

  for (const auto& primitive : primitives) {
    for (const auto& name : datasets) {
      const auto ds = graph::build_dataset(name, seed);
      const double scale = bench::dataset_scale(ds);

      // 1-GPU reference (partitioner is irrelevant at 1 GPU).
      auto base_cfg = bench::config_for_primitive(primitive, 1, seed);
      const double base_ms =
          bench::run_primitive(primitive, ds.graph, "k40", base_cfg, scale)
              .modeled_ms;

      const std::string workload = primitive + "+" + name;
      std::vector<util::Cell> row = {workload};
      std::string part_times;
      for (const auto& part_name : partitioners) {
        auto cfg = bench::config_for_primitive(primitive, gpus, seed);
        cfg.partitioner = part_name;
        // Partitioner runtime (host side, real time).
        util::WallTimer timer;
        const auto partitioner = part::make_partitioner(part_name);
        (void)partitioner->assign(ds.graph, gpus, seed);
        const double part_ms = timer.milliseconds();
        if (!part_times.empty()) part_times += " / ";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", part_ms);
        part_times += buf;

        const double ms =
            bench::run_primitive(primitive, ds.graph, "k40", cfg, scale)
                .modeled_ms;
        row.push_back(base_ms / ms);
      }
      std::fprintf(stderr,
                   "%s partition ms (random / biasrandom / metis): %s\n",
                   workload.c_str(), part_times.c_str());
      table.add_row(std::move(row));
    }
  }
  bench::emit(table, options);
  return 0;
}
