// Table I: per-primitive cost summary — measured W (computation), C
// (communication computation), H (communication volume), and S
// (iterations) against the paper's analytic predictions, on a
// reference rmat graph across 4 GPUs.
//
//   primitive  W              C                 H                   S
//   BFS        O(|Ei|)        O(|Vi|)           O(|Bi|)             ~D/2
//   DOBFS      O(a|Ei|), a<1  O(|V|)            O((n-1)|V|)         ~D/2
//   SSSP       O(b|Ei|)       O(b|Vi|)          O(2b|Bi|)           ~bD/2
//   BC         O(2|Ei|)       O(2|Vi|+|V|)      O(5|Bi|+2(n-1)|Li|) ~D/2
//   CC         log(D/2)O(|Ei|) SxO(|Vi|)        SxO(2|Vi|)          2-5
//   PR         SxO(|Ei|)      SxO(|Bi|)         SxO(|Bi|)           data-dep
//
// The "measured/bound" columns report the measured counter divided by
// the formula's leading term, so O(.) predictions should come out as
// a modest constant (and DOBFS's a as < 1).
//
// Flags: --gpus=N (default 4), --csv=PATH.
#include "bench_support.hpp"
#include "core/enactor.hpp"
#include "graph/properties.hpp"
#include "partition/partitioned_graph.hpp"
#include "partition/partitioner.hpp"
#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/cc.hpp"
#include "primitives/dobfs.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/sssp.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"gpus"});
  const int gpus = bench::flag(options, "gpus", 4, 1, bench::kMaxGpus);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);

  const auto ds = graph::build_dataset("rmat_n22_128", seed);
  const graph::Graph& g = ds.graph;
  const double diameter = graph::estimate_diameter(g, 8, seed);

  // Partition once (random, as everywhere) to measure |B_i| and |L_i|.
  const auto assignment =
      part::RandomPartitioner().assign(g, gpus, seed);
  const auto pg = part::PartitionedGraph::build(
      g, assignment, gpus, part::Duplication::kAll);
  double sum_border = 0;
  for (int i = 0; i < gpus; ++i) {
    sum_border += static_cast<double>(pg.border_total(i));
  }
  const double v_total = g.num_vertices;
  const double e_total = g.num_edges;

  util::Table table(
      "Table I: measured cost counters vs analytic bounds (rmat_n22_128, " +
      std::to_string(gpus) + " GPUs, D~" + std::to_string(diameter) + ")");
  table.set_columns({"primitive", "W (edges)", "W/bound", "C (items)",
                     "C/bound", "H (items)", "H/bound", "S", "S/(D/2)"},
                    2);

  const std::vector<std::string> primitives = {"bfs", "dobfs", "sssp",
                                               "bc",  "cc",    "pr"};
  for (const auto& primitive : primitives) {
    auto cfg = bench::config_for_primitive(primitive, gpus, seed);
    const auto outcome = bench::run_primitive(primitive, g, "k40", cfg);
    const auto& st = outcome.stats;
    const double s = static_cast<double>(st.iterations);

    // Leading terms of the Table I formulas (summed over GPUs).
    double w_bound = e_total;          // sum of |E_i| = |E|
    double c_bound = v_total * gpus;   // n x O(|V_i|)-ish default
    double h_bound = sum_border;       // sum |B_i|
    if (primitive == "dobfs") {
      h_bound = (gpus - 1) * v_total;
      c_bound = (gpus - 1) * v_total;
    } else if (primitive == "sssp") {
      h_bound = 2 * sum_border;
    } else if (primitive == "bc") {
      w_bound = 2 * e_total;
      h_bound = 5 * sum_border + 2.0 * (gpus - 1) * v_total;
      c_bound = 2 * v_total * gpus + v_total;
    } else if (primitive == "cc") {
      w_bound = std::log2(std::max(2.0, diameter / 2)) * e_total;
      h_bound = s * 2 * v_total;
      c_bound = s * v_total * gpus;
    } else if (primitive == "pr") {
      w_bound = s * e_total;
      h_bound = s * sum_border;
      c_bound = s * sum_border;
    }

    table.add_row({primitive, static_cast<long long>(st.total_edges),
                   static_cast<double>(st.total_edges) / w_bound,
                   static_cast<long long>(st.total_combine_items),
                   static_cast<double>(st.total_combine_items) / c_bound,
                   static_cast<long long>(st.total_comm_items),
                   st.total_comm_items == 0
                       ? 0.0
                       : static_cast<double>(st.total_comm_items) / h_bound,
                   static_cast<long long>(st.iterations),
                   s / (diameter / 2)});
  }
  bench::emit(table, options);
  return 0;
}
