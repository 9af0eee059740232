// §VI-A: DOBFS direction-switch threshold sweep.
//
// The paper reports do_a = 0.01 and do_b = 0.1 as good choices for
// social graphs, and — importantly for the framework — that the same
// parameters work across GPU counts ("mostly mGPU-independent"). This
// bench sweeps (do_a, do_b) on a social analog at 1 and 4 GPUs and
// prints modeled runtimes; the minimum should sit in the same region
// for both GPU counts.
//
// Flags: --csv=PATH.
#include "bench_support.hpp"
#include "primitives/dobfs.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);

  const auto ds = graph::build_dataset("soc-orkut", seed);
  const double scale = bench::dataset_scale(ds);
  const std::vector<double> do_a_values = {0.0, 0.001, 0.01, 0.1, 1.0,
                                           1e18};
  const std::vector<double> do_b_values = {0.01, 0.1, 1.0};

  util::Table table("Sec. VI-A: DOBFS runtime (ms) vs (do_a, do_b), "
                    "soc-orkut analog");
  table.set_columns({"do_a", "do_b", "ms @1GPU", "switches@1",
                     "ms @4GPU", "switches@4"},
                    3);

  for (const double do_a : do_a_values) {
    for (const double do_b : do_b_values) {
      prim::DobfsOptions opt;
      opt.do_a = do_a;
      opt.do_b = do_b;
      std::vector<double> ms(2);
      std::vector<int> switches(2);
      int idx = 0;
      for (const int gpus : {1, 4}) {
        auto cfg = bench::config_for_primitive("dobfs", gpus, seed);
        auto machine = vgpu::Machine::create("k40", gpus);
        machine.set_workload_scale(scale);
        const auto result = prim::run_dobfs(
            ds.graph, bench::pick_source(ds.graph), machine, cfg, opt);
        ms[idx] = result.stats.modeled_total_s() * 1e3;
        switches[idx] = result.direction_switches;
        ++idx;
      }
      table.add_row({do_a, do_b, ms[0],
                     static_cast<long long>(switches[0]), ms[1],
                     static_cast<long long>(switches[1])});
    }
  }
  std::printf("expected: best region around do_a=0.01, do_b=0.1 at both "
              "GPU counts (thresholds are mGPU-independent); do_a=1e18 "
              "is the never-switch (plain BFS) reference\n");
  bench::emit(table, options);
  return 0;
}
