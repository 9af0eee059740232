// Shared harness for the per-table / per-figure bench binaries.
//
// Every binary accepts:
//   --suite=fast|default|full   dataset suite size (default "default")
//   --seed=N                    generator/partitioner seed (default 1)
//   --csv=PATH                  also write the table as CSV
//   --trace=PATH                capture a Chrome trace of the first run
//                               (PATH.stats.json gets the stats +
//                               bottleneck report)
//   --fault-plan=SPEC           run under a deterministic fault plan
//                               (FaultPlan::parse syntax)
//   --fault-seed=N              ... or one derived from a seed (N != 0)
//   --wire-format=F             frontier-push wire format for every run:
//                               raw | bitmap | varint | auto
//                               (core::parse_wire_format; default raw)
//   --host-threads=N            host worker threads per run, 0..64
//                               (0 = auto = hardware concurrency capped
//                               at 8; wall-clock only — results, W, H,
//                               and modeled times are bit-identical at
//                               any value)
//   --queries=N                 point queries per serve workload
//                               (serve-layer benches; others ignore it)
//   --query-seed=N              query-workload generator seed — the
//                               workload is deterministic in
//                               (graph, N, seed)
//   --batch-width=N             max distinct sources per serve batch
//                               (1..64)
// plus binary-specific flags documented in each main(). Every numeric
// flag is read through flag(), which range-checks it.
#pragma once

#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "vgpu/cost.hpp"
#include "vgpu/machine.hpp"

namespace mgg::bench {

/// The largest --gpus, --max-gpus or --lanes value: every vGPU runs one
/// control thread, so no flag may ask for thousands of them.
inline constexpr int kMaxGpus = 64;

/// A rejected flag is a usage error, not a crash: print the message and
/// exit with status 2, so a script or CTest can tell the two apart.
[[noreturn]] void reject_flag(const Error& e);

/// The numeric flag `key` (`fallback` when absent), range-checked
/// against [lo, hi] before it is narrowed to T, so that -1 or 2^32 + 2
/// cannot wrap into range. A malformed or out-of-range value prints
/// "--key must be in [lo, hi]" (">= lo" when hi is T's maximum) and
/// exits with status 2.
template <typename T>
T flag(const util::Options& options, const std::string& key, T fallback,
       std::type_identity_t<T> lo,
       std::type_identity_t<T> hi = std::numeric_limits<T>::max()) try {
  if constexpr (std::is_floating_point_v<T>) {
    const double value = options.get_double(key, fallback);
    if (value >= lo && value <= hi) return static_cast<T>(value);
  } else {
    const long long value =
        options.get_int(key, static_cast<long long>(fallback));
    if (std::cmp_greater_equal(value, lo) && std::cmp_less_equal(value, hi)) {
      return static_cast<T>(value);
    }
  }
  std::ostringstream what;
  what << "--" << key << " must be ";
  if (hi == std::numeric_limits<T>::max()) {
    what << ">= " << lo;
  } else {
    what << "in [" << lo << ", " << hi << "]";
  }
  throw Error(Status::kInvalidArgument, what.str());
} catch (const Error& e) {
  reject_flag(e);
}

/// One primitive run's outcome in bench terms.
struct Outcome {
  vgpu::RunStats stats;
  double modeled_ms = 0;
  double gteps = 0;  ///< graph |E| / modeled time (paper convention)
};

/// Run `primitive` in {"bfs","dobfs","sssp","cc","bc","pr"} on `g`
/// using `config.num_gpus` devices of a fresh machine of `gpu_model`.
/// Sources are chosen deterministically (highest-degree vertex).
/// `workload_scale` models the full-size dataset through the scaled
/// analog (see Machine::set_workload_scale); pass dataset_scale() for
/// registry datasets.
Outcome run_primitive(const std::string& primitive, const graph::Graph& g,
                      const std::string& gpu_model, core::Config config,
                      double workload_scale = 1.0);

/// paper |E| / analog |E| for a registry dataset (>= 1).
double dataset_scale(const graph::Dataset& ds);

/// The per-primitive Config defaults from Table I (duplication /
/// communication strategy), with `num_gpus` and `seed` applied.
core::Config config_for_primitive(const std::string& primitive,
                                  int num_gpus, std::uint64_t seed);

/// Dataset names for a suite size: "fast" (3 small), "default"
/// (6, two per family), "full" (all of Table II).
std::vector<std::string> suite_datasets(const std::string& suite);

/// Highest-degree vertex: the deterministic traversal source.
VertexT pick_source(const graph::Graph& g);

/// Serve-layer workload knobs from the common flags (--queries /
/// --query-seed / --batch-width), with the binary's defaults applied.
/// Feed `queries`/`seed` to serve::generate_queries for a workload
/// deterministic in (graph, queries, seed). An out-of-range or
/// malformed value prints its message and exits with status 2.
struct QueryWorkload {
  std::size_t queries = 256;
  std::uint64_t seed = 1;
  int batch_width = 64;
};
QueryWorkload parse_query_workload(const util::Options& options,
                                   QueryWorkload defaults = {});

/// Parse the common flags; returns the Options for further queries.
/// Rejects any flag that is neither common (suite/seed/csv/trace) nor
/// in `extra` (the binary's own flags), and arms --trace capture for
/// the next run_primitive() call. A rejected flag (unknown, malformed
/// or out of range) prints its message and exits with status 2.
util::Options parse_common(int argc, char** argv,
                           std::initializer_list<std::string_view> extra = {});

/// Print the table and honor --csv.
void emit(util::Table& table, const util::Options& options);

}  // namespace mgg::bench
