#include "bench_support.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/cc.hpp"
#include "primitives/dobfs.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/sssp.hpp"
#include "util/error.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/stats_io.hpp"
#include "vgpu/trace.hpp"

namespace mgg::bench {

namespace {
// Armed by parse_common(--trace=PATH); the next run_primitive() call
// attaches a tracer and writes the Chrome trace + stats JSON there,
// then disarms — bench binaries run many configurations, and the
// first run is the representative one to capture.
std::string g_trace_path;
// Armed by parse_common(--fault-plan=SPEC / --fault-seed=N): every
// run_primitive() call runs under the resulting deterministic fault
// plan. The armed plan is printed once so a red run names its seed.
std::string g_fault_plan;
std::uint64_t g_fault_seed = 0;
// Armed by parse_common(--wire-format=raw|bitmap|varint|auto): every
// run_primitive() call applies it to the Config, overriding the
// caller's wire_format. Default raw keeps every golden byte-identical.
core::WireFormat g_wire_format = core::WireFormat::kRawIds;
bool g_wire_format_set = false;
// Armed by parse_common(--host-threads=N): every run_primitive() call
// applies it to Config::host_threads. Pure wall-clock knob — results
// and all modeled quantities are bit-identical at any value.
int g_host_threads = 0;
bool g_host_threads_set = false;

// A rejected flag is a usage error, not a crash: print the message and
// exit with status 2, so a script or CTest can tell the two apart.
[[noreturn]] void reject_flag(const Error& e) {
  std::fprintf(stderr, "%s\n", e.what());
  std::exit(2);
}
}  // namespace

VertexT pick_source(const graph::Graph& g) {
  VertexT best = 0;
  SizeT best_degree = 0;
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    if (g.degree(v) > best_degree) {
      best = v;
      best_degree = g.degree(v);
    }
  }
  return best;
}

core::Config config_for_primitive(const std::string& primitive, int num_gpus,
                                  std::uint64_t seed) {
  core::Config cfg;
  cfg.num_gpus = num_gpus;
  cfg.seed = seed;
  // Table I / §III-C prescriptions.
  if (primitive == "bfs" || primitive == "bc") {
    cfg.duplication = part::Duplication::kAll;
    cfg.comm = core::CommStrategy::kSelective;
  } else if (primitive == "dobfs" || primitive == "cc") {
    cfg.duplication = part::Duplication::kAll;
    cfg.comm = core::CommStrategy::kBroadcast;
  } else if (primitive == "sssp") {
    cfg.duplication = part::Duplication::kOneHop;
    cfg.comm = core::CommStrategy::kSelective;
  } else if (primitive == "pr") {
    cfg.duplication = part::Duplication::kAll;
    cfg.comm = core::CommStrategy::kSelective;
    cfg.scheme = vgpu::AllocationScheme::kFixedPrealloc;  // §VI-B
  } else {
    throw Error(Status::kNotFound, "unknown primitive '" + primitive + "'");
  }
  if (primitive == "cc") {
    cfg.scheme = vgpu::AllocationScheme::kFixedPrealloc;  // §VI-B
  }
  return cfg;
}

double dataset_scale(const graph::Dataset& ds) {
  if (ds.spec.paper_edges <= 0 || ds.graph.num_edges == 0) return 1.0;
  return std::max(1.0, ds.spec.paper_edges /
                           static_cast<double>(ds.graph.num_edges));
}

Outcome run_primitive(const std::string& primitive, const graph::Graph& g,
                      const std::string& gpu_model, core::Config config,
                      double workload_scale) {
  auto machine = vgpu::Machine::create(gpu_model, config.num_gpus);
  machine.set_workload_scale(workload_scale);
  if (g_wire_format_set) config.wire_format = g_wire_format;
  if (g_host_threads_set) config.host_threads = g_host_threads;
  std::unique_ptr<vgpu::Tracer> tracer;
  std::string trace_path;
  if (!g_trace_path.empty()) {
    trace_path.swap(g_trace_path);  // capture this run only
    tracer = std::make_unique<vgpu::Tracer>();
    machine.set_tracer(tracer.get());
  }
  const auto injector = vgpu::make_injector_from_flags(
      g_fault_plan, g_fault_seed, config.num_gpus);
  if (injector != nullptr) machine.set_fault_injector(injector.get());
  Outcome outcome;
  if (primitive == "bfs") {
    outcome.stats =
        prim::run_bfs(g, pick_source(g), machine, config).stats;
  } else if (primitive == "dobfs") {
    outcome.stats =
        prim::run_dobfs(g, pick_source(g), machine, config).stats;
  } else if (primitive == "sssp") {
    outcome.stats =
        prim::run_sssp(g, pick_source(g), machine, config).stats;
  } else if (primitive == "cc") {
    outcome.stats = prim::run_cc(g, machine, config).stats;
  } else if (primitive == "bc") {
    const auto result =
        prim::run_bc(g, machine, config, {pick_source(g)});
    outcome.stats = result.stats;
  } else if (primitive == "pr") {
    prim::PagerankOptions options;
    options.max_iterations = 20;
    outcome.stats = prim::run_pagerank(g, machine, config, options).stats;
  } else {
    throw Error(Status::kNotFound, "unknown primitive '" + primitive + "'");
  }
  outcome.modeled_ms = outcome.stats.modeled_total_s() * 1e3;
  // GTEPS against the modeled full-size edge count (paper convention).
  outcome.gteps = outcome.stats.gteps(static_cast<double>(g.num_edges) *
                                      workload_scale);
  if (tracer != nullptr) {
    tracer->write_chrome_trace(trace_path);
    vgpu::save_run_stats_json(trace_path + ".stats.json", outcome.stats, {},
                              tracer.get());
  }
  return outcome;
}

QueryWorkload parse_query_workload(const util::Options& options,
                                   QueryWorkload defaults) try {
  // Range-check the parsed values before narrowing them, so -1 or
  // 2^32 + 1 cannot wrap into range.
  const long long queries = options.get_int(
      "queries", static_cast<long long>(defaults.queries));
  const long long batch_width =
      options.get_int("batch-width", defaults.batch_width);
  MGG_REQUIRE(queries >= 1, "--queries must be >= 1");
  MGG_REQUIRE(batch_width >= 1 && batch_width <= 64,
              "--batch-width must be in [1, 64]");
  QueryWorkload w = defaults;
  w.queries = static_cast<std::size_t>(queries);
  w.seed = static_cast<std::uint64_t>(options.get_int(
      "query-seed", static_cast<long long>(defaults.seed)));
  w.batch_width = static_cast<int>(batch_width);
  return w;
} catch (const Error& e) {
  reject_flag(e);
}

std::vector<std::string> suite_datasets(const std::string& suite) {
  if (suite == "fast") {
    return {"hollywood-2009", "indochina-2004", "rmat_n20_512"};
  }
  if (suite == "full") {
    return graph::table2_suite();
  }
  // default: two per family, moderate sizes.
  return {"hollywood-2009", "soc-orkut",   "indochina-2004",
          "uk-2002",        "rmat_n20_512", "rmat_n22_128"};
}

util::Options parse_common(int argc, char** argv,
                           std::initializer_list<std::string_view> extra) try {
  util::Options options(argc, argv);
  std::vector<std::string_view> known = {"suite",      "seed",
                                         "csv",        "trace",
                                         "fault-plan", "fault-seed",
                                         "wire-format", "host-threads",
                                         "queries",    "query-seed",
                                         "batch-width"};
  known.insert(known.end(), extra.begin(), extra.end());
  options.check_unknown(known);
  g_trace_path = options.get_string("trace", "");
  g_fault_plan = options.get_string("fault-plan", "");
  g_fault_seed = static_cast<std::uint64_t>(options.get_int("fault-seed", 0));
  const std::string wire = options.get_string("wire-format", "");
  g_wire_format_set = !wire.empty();
  if (g_wire_format_set) {
    g_wire_format = core::parse_wire_format(wire);  // throws on typos
    std::fprintf(stderr, "[wire] format override: %s\n", wire.c_str());
  }
  g_host_threads_set = options.has("host-threads");
  if (g_host_threads_set) {
    g_host_threads = static_cast<int>(options.get_int("host-threads", 0));
    std::fprintf(stderr, "[host] worker threads override: %d\n",
                 g_host_threads);
  }
  if (!g_fault_plan.empty() || g_fault_seed != 0) {
    std::fprintf(stderr, "[fault] injection armed: %s\n",
                 g_fault_plan.empty()
                     ? ("seed " + std::to_string(g_fault_seed)).c_str()
                     : g_fault_plan.c_str());
  }
  return options;
} catch (const Error& e) {
  reject_flag(e);
}

void emit(util::Table& table, const util::Options& options) {
  table.print();
  const std::string csv = options.get_string("csv", "");
  if (!csv.empty()) table.write_csv(csv);
}

}  // namespace mgg::bench
