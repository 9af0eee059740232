// Table II: the dataset inventory — paper-reported |V|, |E|, D next to
// the generated synthetic analog's measured values and the implied
// workload-scale factor used by the other benches.
//
// Flags: --family=soc|web|rmat|... (default: Table II families),
//        --full (include comparison-table extras), --csv=PATH.
#include "bench_support.hpp"
#include "graph/properties.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"family", "full"});
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);
  const auto family = options.get_string("family", "");
  const bool full = options.get_bool("full", false);

  std::vector<std::string> names;
  if (!family.empty()) {
    names = graph::datasets_in_family(family);
  } else if (full) {
    names = graph::datasets_in_family();  // everything registered
  } else {
    names = graph::table2_suite();
  }

  util::Table table("Table II: datasets (paper vs generated analog)");
  table.set_columns({"dataset", "family", "paper |V|", "paper |E|",
                     "paper D", "analog |V|", "analog |E|", "analog D~",
                     "deg", "scale"},
                    1);

  for (const auto& name : names) {
    const auto ds = graph::build_dataset(name, seed);
    const auto& g = ds.graph;
    const double diameter = graph::estimate_diameter(g, 6, seed);
    table.add_row({name, ds.spec.family,
                   ds.spec.paper_vertices / 1e6,  // millions
                   ds.spec.paper_edges / 1e6, ds.spec.paper_diameter,
                   static_cast<long long>(g.num_vertices),
                   static_cast<long long>(g.num_edges), diameter,
                   g.average_degree(), bench::dataset_scale(ds)});
  }
  std::printf("paper |V|/|E| in millions; analog D~ from random-source "
              "BFS (as the paper's rmat rows)\n");
  bench::emit(table, options);
  return 0;
}
