// §V-A: communication-volume and latency sensitivity.
//
// The paper artificially increases H and finds (1) runtime varies
// linearly with H, (2) DOBFS is hurt more than BFS and PR because its
// W and H are the same scale, and (3) a 10x latency increase makes no
// appreciable difference.
//
// We reproduce both injections through the Interconnect fault knobs:
// a volume-multiplier sweep {1, 2, 4, 8} and a latency x10 run.
//
// Flags: --gpus=N (default 4), --csv=PATH.
#include "bench_support.hpp"
#include "primitives/bfs.hpp"
#include "primitives/dobfs.hpp"
#include "primitives/pagerank.hpp"

namespace {

double run_with_injection(const std::string& primitive,
                          const mgg::graph::Graph& g, int gpus,
                          double scale, double volume_mult,
                          double latency_mult, std::uint64_t seed) {
  using namespace mgg;
  auto cfg = bench::config_for_primitive(primitive, gpus, seed);
  auto machine = vgpu::Machine::create("k40", gpus);
  machine.set_workload_scale(scale);
  // Compose the §V-A injection on top of the scale compensation.
  machine.interconnect().set_volume_multiplier(
      machine.interconnect().volume_multiplier() * volume_mult);
  machine.interconnect().set_latency_multiplier(latency_mult);

  vgpu::RunStats stats;
  if (primitive == "bfs") {
    stats = prim::run_bfs(g, bench::pick_source(g), machine, cfg).stats;
  } else if (primitive == "dobfs") {
    stats = prim::run_dobfs(g, bench::pick_source(g), machine, cfg).stats;
  } else {
    prim::PagerankOptions options;
    options.max_iterations = 20;
    stats = prim::run_pagerank(g, machine, cfg, options).stats;
  }
  return stats.modeled_total_s() * 1e3;
}

}  // namespace

namespace {

// Golden communication volumes at 4 GPUs / seed 1, pinned so any
// change to the message layout or packaging path that alters H (bytes
// or items) fails loudly. BFS and PR goldens predate the flat
// message-layout change and still match bit-identically; the SSSP
// goldens were re-captured when drain order was made deterministic
// (arrival order previously varied run to run, and SSSP's sends depend
// on combine order).
struct GoldenH {
  const char* dataset;
  const char* primitive;
  std::uint64_t bytes;
  std::uint64_t items;
};

constexpr GoldenH kGoldens[] = {
    {"rmat_n22_128", "bfs", 84724, 21181},
    {"rmat_n22_128", "sssp", 384536, 48067},
    {"rmat_n22_128", "pr", 1864192, 233024},
    {"indochina-2004", "bfs", 173488, 43372},
    {"indochina-2004", "sssp", 1556024, 194503},
    {"indochina-2004", "pr", 3817000, 477125},
};

bool check_comm_volume_goldens() {
  using namespace mgg;
  bool ok = true;
  std::string current_dataset;
  graph::Dataset ds;
  for (const GoldenH& golden : kGoldens) {
    if (current_dataset != golden.dataset) {
      ds = graph::build_dataset(golden.dataset, /*seed=*/1);
      current_dataset = golden.dataset;
    }
    const auto cfg = bench::config_for_primitive(golden.primitive, 4, 1);
    const auto outcome =
        bench::run_primitive(golden.primitive, ds.graph, "k40", cfg);
    const bool match = outcome.stats.total_comm_bytes == golden.bytes &&
                       outcome.stats.total_comm_items == golden.items;
    if (!match) {
      ok = false;
      std::fprintf(stderr,
                   "H MISMATCH %s/%s: got bytes=%llu items=%llu, "
                   "expected bytes=%llu items=%llu\n",
                   golden.dataset, golden.primitive,
                   static_cast<unsigned long long>(
                       outcome.stats.total_comm_bytes),
                   static_cast<unsigned long long>(
                       outcome.stats.total_comm_items),
                   static_cast<unsigned long long>(golden.bytes),
                   static_cast<unsigned long long>(golden.items));
    }
  }
  std::printf("comm-volume goldens (4 GPUs, seed 1): %s\n",
              ok ? "all match" : "MISMATCH");
  return ok;
}

// Compressed wire formats must shrink H's byte footprint without
// moving anything else: same results, same item counts, strictly
// fewer bytes. Runs the primitives directly (not run_primitive) so a
// --wire-format override cannot silently turn both sides into the
// same format.
bool check_compressed_formats() {
  using namespace mgg;
  bool ok = true;
  const auto ds = graph::build_dataset("rmat_n22_128", /*seed=*/1);
  const VertexT src = bench::pick_source(ds.graph);
  for (const int gpus : {4, 8}) {
    auto cfg_raw = bench::config_for_primitive("bfs", gpus, 1);
    cfg_raw.wire_format = core::WireFormat::kRawIds;
    auto cfg_auto = cfg_raw;
    cfg_auto.wire_format = core::WireFormat::kAuto;
    auto m_raw = vgpu::Machine::create("k40", gpus);
    auto m_auto = vgpu::Machine::create("k40", gpus);
    const auto raw = prim::run_bfs(ds.graph, src, m_raw, cfg_raw);
    const auto comp = prim::run_bfs(ds.graph, src, m_auto, cfg_auto);
    const bool same_results = raw.labels == comp.labels;
    const bool same_items =
        raw.stats.total_comm_items == comp.stats.total_comm_items &&
        raw.stats.total_edges == comp.stats.total_edges &&
        raw.stats.iterations == comp.stats.iterations;
    const bool fewer_bytes =
        comp.stats.total_comm_bytes < raw.stats.total_comm_bytes;
    if (!(same_results && same_items && fewer_bytes)) {
      ok = false;
      std::fprintf(stderr,
                   "WIRE MISMATCH bfs @%d GPUs: results %s, items %s, "
                   "bytes raw=%llu auto=%llu\n",
                   gpus, same_results ? "match" : "DIFFER",
                   same_items ? "match" : "DIFFER",
                   static_cast<unsigned long long>(
                       raw.stats.total_comm_bytes),
                   static_cast<unsigned long long>(
                       comp.stats.total_comm_bytes));
    }
  }
  std::printf("compressed wire formats (bfs, 4+8 GPUs: identical "
              "results/items, fewer bytes): %s\n",
              ok ? "pass" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"gpus"});
  const int gpus = bench::flag(options, "gpus", 4, 1, bench::kMaxGpus);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);

  if (!check_comm_volume_goldens()) return 1;
  if (!check_compressed_formats()) return 1;

  const auto ds = graph::build_dataset("rmat_n22_128", seed);
  const double scale = bench::dataset_scale(ds);

  util::Table table("Sec. V-A: runtime (ms) vs injected communication "
                    "volume / latency (" +
                    std::to_string(gpus) + " GPUs, rmat_n22_128)");
  table.set_columns({"primitive", "H x1", "H x2", "H x4", "H x8",
                     "slowdown @x8", "latency x10 / x1"},
                    3);

  for (const std::string primitive : {"bfs", "dobfs", "pr"}) {
    std::vector<double> ms;
    for (const double mult : {1.0, 2.0, 4.0, 8.0}) {
      ms.push_back(run_with_injection(primitive, ds.graph, gpus, scale,
                                      mult, 1.0, seed));
    }
    const double lat10 = run_with_injection(primitive, ds.graph, gpus,
                                            scale, 1.0, 10.0, seed);
    table.add_row({primitive, ms[0], ms[1], ms[2], ms[3], ms[3] / ms[0],
                   lat10 / ms[0]});
  }
  std::printf("expected: runtime linear in H; DOBFS slowdown @x8 largest; "
              "latency x10 ratio ~1.0\n");
  bench::emit(table, options);
  return 0;
}
