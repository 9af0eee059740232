// Fig. 6: geomean mGPU speedups over 1 GPU split by graph family
// (rmat / soc / web) for BFS, DOBFS, and PR, at 2-6 GPUs.
//
// Paper findings: DOBFS suffers most on rmat (its communication is
// O(|V|)-scale while its computation collapses to O(|V_i|)); the large
// |E|/|V| of rmat *helps* BFS and PR scalability (computation is
// O(|E_i|), communication at most O(|V_i|)).
//
// Flags: --suite=fast|default|full (datasets per family), --csv=PATH.
#include <cstdio>
#include <map>

#include "bench_support.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"max-gpus"});
  const auto suite = options.get_string("suite", "default");
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);
  const int max_gpus = bench::flag(options, "max-gpus", 6, 1, bench::kMaxGpus);

  std::map<std::string, std::vector<std::string>> families;
  if (suite == "fast") {
    families = {{"rmat", {"rmat_n20_512"}},
                {"soc", {"hollywood-2009"}},
                {"web", {"indochina-2004"}}};
  } else if (suite == "full") {
    for (const std::string fam : {"rmat", "soc", "web"}) {
      families[fam] = graph::datasets_in_family(fam);
    }
  } else {
    families = {{"rmat", {"rmat_n20_512", "rmat_n22_128"}},
                {"soc", {"hollywood-2009", "soc-orkut"}},
                {"web", {"indochina-2004", "uk-2002"}}};
  }
  const std::vector<std::string> primitives = {"bfs", "dobfs", "pr"};

  util::Table table("Fig. 6: geomean speedup vs 1 GPU by graph family");
  std::vector<std::string> cols = {"primitive", "family"};
  for (int g = 2; g <= max_gpus; ++g) cols.push_back(std::to_string(g) + " GPUs");
  table.set_columns(cols, 2);

  for (const auto& primitive : primitives) {
    // speedups[gpus] per family plus the "all" aggregation.
    std::map<std::string, std::map<int, std::vector<double>>> speedups;
    for (const auto& [family, names] : families) {
      for (const auto& name : names) {
        const auto ds = graph::build_dataset(name, seed);
        const double scale = bench::dataset_scale(ds);
        auto cfg1 = bench::config_for_primitive(primitive, 1, seed);
        const double base_ms =
            bench::run_primitive(primitive, ds.graph, "k40", cfg1, scale)
                .modeled_ms;
        for (int gpus = 2; gpus <= max_gpus; ++gpus) {
          auto cfg = bench::config_for_primitive(primitive, gpus, seed);
          const double ms =
              bench::run_primitive(primitive, ds.graph, "k40", cfg, scale)
                  .modeled_ms;
          speedups[family][gpus].push_back(base_ms / ms);
          speedups["all"][gpus].push_back(base_ms / ms);
        }
      }
    }
    for (const std::string family : {"all", "rmat", "soc", "web"}) {
      std::vector<util::Cell> row = {primitive, family};
      for (int gpus = 2; gpus <= max_gpus; ++gpus) {
        row.emplace_back(util::geometric_mean(speedups[family][gpus]));
      }
      table.add_row(std::move(row));
    }
    std::printf("  %s done\n", primitive.c_str());
  }
  bench::emit(table, options);
  return 0;
}
