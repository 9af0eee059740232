// Fig. 5: strong and weak scaling of DOBFS, BFS, and PR in GTEPS on
// the K80 and P100 machines, 1-8 GPUs.
//
// The paper's workloads (scaled here by 2^-9 in vertex count, with the
// full-size workload modeled via the workload-scale knob):
//   strong       — rmat with 2^24 vertices, edge factor 32 (fixed)
//   weak edge    — rmat with 2^19 vertices, edge factor 256 x |GPUs|
//   weak vertex  — rmat with 2^19 x |GPUs| vertices, edge factor 256
//
// Expected shapes: DOBFS flat in strong scaling (communication bound,
// worse on P100 where compute got faster but the bus did not), BFS and
// PR near-linear in both strong and weak scaling.
//
// Flags: --max-gpus=N (default 8), --csv=PATH.
#include <cstdio>

#include "bench_support.hpp"
#include "graph/generators.hpp"

namespace {

constexpr int kScaleReduction = 9;  // 2^-9 of the paper's vertex counts

mgg::graph::Graph scaled_rmat(int paper_scale, double edge_factor,
                              std::uint64_t seed) {
  return mgg::graph::build_undirected(mgg::graph::make_rmat(
      paper_scale - kScaleReduction, edge_factor,
      mgg::graph::RmatParams::gtgraph(), seed));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"max-gpus"});
  const int max_gpus = bench::flag(options, "max-gpus", 8, 1, bench::kMaxGpus);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);
  const double ws = static_cast<double>(1u << kScaleReduction);

  const std::vector<std::string> primitives = {"dobfs", "bfs", "pr"};
  const std::vector<std::string> models = {"k80", "p100"};

  util::Table table("Fig. 5: DOBFS/BFS/PR scaling, GTEPS");
  std::vector<std::string> cols = {"primitive", "mode", "gpu"};
  for (int g = 1; g <= max_gpus; ++g) cols.push_back(std::to_string(g));
  table.set_columns(cols, 1);

  for (const auto& primitive : primitives) {
    for (const std::string mode : {"strong", "weak-edge", "weak-vertex"}) {
      for (const auto& model : models) {
        std::vector<util::Cell> row = {primitive, std::string(mode), model};
        for (int gpus = 1; gpus <= max_gpus; ++gpus) {
          graph::Graph g;
          if (mode == "strong") {
            g = scaled_rmat(24, 32, seed);
          } else if (mode == "weak-edge") {
            g = scaled_rmat(19, 256.0 * gpus, seed);
          } else {
            // weak-vertex: 2^19 x gpus vertices. Approximate the x|GPUs|
            // factor by bumping the scale for powers of two and adjusting
            // the edge factor for the remainder.
            int extra = 0;
            int rem = gpus;
            while (rem >= 2) {
              rem /= 2;
              ++extra;
            }
            const double adjust =
                static_cast<double>(gpus) / static_cast<double>(1 << extra);
            g = scaled_rmat(19 + extra, 256.0 * adjust, seed);
          }
          auto cfg = bench::config_for_primitive(primitive, gpus, seed);
          const auto outcome =
              bench::run_primitive(primitive, g, model, cfg, ws);
          // PR touches every edge each iteration; its GTEPS counts
          // total edges traversed (the paper's Fig. 5c convention —
          // otherwise PR rates would be ~S x lower than shown there).
          double gteps = outcome.gteps;
          if (primitive == "pr") {
            gteps *= static_cast<double>(outcome.stats.iterations);
          }
          row.emplace_back(gteps);
        }
        table.add_row(std::move(row));
      }
    }
    std::printf("  %s done\n", primitive.c_str());
  }
  bench::emit(table, options);
  return 0;
}
