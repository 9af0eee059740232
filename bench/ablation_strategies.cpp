// Ablation: the §III-C design axes, isolated one at a time on BFS.
//
//   (a) communication strategy: selective vs broadcast — broadcasting
//       "saves the work required to split the frontier, but consumes
//       more memory and communication bandwidth";
//   (b) vertex duplication: duplicate-all vs duplicate-1-hop — 1-hop
//       "uses less memory space, but requires ID conversion";
//   (c) kernel fusion (§VI-C): the fused scheme vs the split pipeline
//       at identical buffer sizing.
//
// Reported per variant: modeled time, communicated items (H), and
// summed peak device memory.
//
// Flags: --gpus=N (default 4), --csv=PATH.
#include "bench_support.hpp"
#include "primitives/bfs.hpp"

namespace {

struct Variant {
  const char* name;
  mgg::core::CommStrategy comm;
  mgg::part::Duplication dup;
  mgg::vgpu::AllocationScheme scheme;
  const char* partitioner = "random";
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"gpus"});
  const int gpus = bench::flag(options, "gpus", 4, 1, bench::kMaxGpus);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);

  const std::vector<Variant> variants = {
      {"selective + dup-all + fused", core::CommStrategy::kSelective,
       part::Duplication::kAll, vgpu::AllocationScheme::kPreallocFusion},
      {"broadcast + dup-all + fused", core::CommStrategy::kBroadcast,
       part::Duplication::kAll, vgpu::AllocationScheme::kPreallocFusion},
      {"selective + dup-1hop + fused", core::CommStrategy::kSelective,
       part::Duplication::kOneHop,
       vgpu::AllocationScheme::kPreallocFusion},
      {"selective + dup-all + split", core::CommStrategy::kSelective,
       part::Duplication::kAll, vgpu::AllocationScheme::kFixedPrealloc},
      // 1-hop's memory advantage needs a locality-aware partitioner:
      // under random partitioning of a power-law graph, nearly every
      // vertex borders every part, so V_i ~ V anyway.
      {"sel + dup-1hop + fused + chunk", core::CommStrategy::kSelective,
       part::Duplication::kOneHop, vgpu::AllocationScheme::kPreallocFusion,
       "chunk"},
  };

  util::Table table("Ablation: BFS design axes on " +
                    std::to_string(gpus) + " GPUs");
  table.set_columns({"variant", "dataset", "modeled ms", "H items",
                     "peak MB", "launches"},
                    2);

  for (const char* dataset : {"soc-orkut", "uk-2002"}) {
    const auto ds = graph::build_dataset(dataset, seed);
    const double scale = bench::dataset_scale(ds);
    for (const auto& variant : variants) {
      core::Config cfg;
      cfg.num_gpus = gpus;
      cfg.seed = seed;
      cfg.comm = variant.comm;
      cfg.duplication = variant.dup;
      cfg.scheme = variant.scheme;
      cfg.partitioner = variant.partitioner;

      auto machine = vgpu::Machine::create("k40", gpus);
      machine.set_workload_scale(scale);
      prim::BfsProblem problem;
      problem.init(ds.graph, machine, cfg);
      prim::BfsEnactor enactor(problem);
      enactor.reset(bench::pick_source(ds.graph));
      const auto stats = enactor.enact();

      std::size_t peak = 0;
      for (int gpu = 0; gpu < gpus; ++gpu) {
        peak += machine.device(gpu).memory().peak_bytes();
      }
      table.add_row({variant.name, dataset,
                     stats.modeled_total_s() * 1e3,
                     static_cast<long long>(stats.total_comm_items),
                     static_cast<double>(peak) / (1 << 20),
                     static_cast<long long>(stats.total_launches)});
    }
  }
  std::printf("expected: broadcast raises H and time; dup-1hop cuts peak "
              "memory; the split pipeline adds launches and memory\n");
  bench::emit(table, options);
  return 0;
}
