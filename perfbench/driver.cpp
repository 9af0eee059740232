// Benchmark driver: sets up one workload against the unmodified
// library, warms up by elapsed time, runs a closed loop of operations
// until it has measured a fixed number of seconds free of hypervisor
// steal, checks every answer against the CPU reference, and writes raw
// samples as JSON for perfbench/run.py to reduce into metrics.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --out=PATH
//
// Operations are timed from outside, around the public calls of each
// layer (Problem/Enactor reset + enact, QueryService::run). With
// --trace=1 the run splits its measuring time in two: an untraced half
// (the baseline for the tracing overhead) and a traced half that
// records a wall-clock span around every layer call and attaches the
// library's vgpu::Tracer for the modeled per-span breakdown. After the
// timed windows, a traced run also rebuilds the modeled parts of a few
// operations per kind from the tracer's superstep records, so that
// perfbench/metrics.py can check them against what the library reported.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/cpu_reference.hpp"
#include "core/problem.hpp"
#include "graph/datasets.hpp"
#include "primitives/bfs.hpp"
#include "primitives/common.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/sssp.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/random.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/trace.hpp"

using namespace mgg;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload {
  std::string name;
  std::string dataset;
  std::vector<std::string> kinds;  ///< op kinds, run round-robin
  int gpus_per_node = 1;
  int nodes = 1;  ///< > 1: Machine::create_cluster
  bool two_level = false;
  core::WireFormat wire = core::WireFormat::kRawIds;
  int host_threads = 1;
  int serve_lanes = 0;  ///< > 0: QueryService workload
  int pool = 32;        ///< distinct sources (graph) or requests (serve)
};

constexpr int kQueriesPerRequest = 64;
constexpr int kPagerankIterations = 20;
constexpr ValueT kPagerankDamping = 0.85f;
/// PageRank answers must match the CPU reference within this relative
/// tolerance per vertex (plus an absolute floor for tiny ranks); the
/// two differ only in float summation order.
constexpr double kPagerankRelTol = 1e-3;
constexpr double kPagerankAbsTol = 1e-9;
/// The graphs are fixed; only sources and queries vary with --seed.
constexpr std::uint64_t kGraphSeed = 1;
/// Set-up is repeated (setup_s is the median): at least kSetupMinReps
/// times, and up to kSetupMaxReps while the reps so far took less than
/// kSetupBudgetS, so cheap set-ups get more samples.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 25;
constexpr double kSetupBudgetS = 3.0;
/// Warm-up by elapsed time before the measured window (the host runs
/// slow for about a second after it idles), and after the tracer is
/// attached (a serve rig is rebuilt then).
constexpr double kWarmupS = 3.0;
constexpr double kTracedWarmupS = 1.0;
/// The library's threads block and wake at every superstep. While the
/// host's CPUs are busy, each wake-up waits for the hypervisor, which
/// shows as steal time in /proc/stat, and wall times run up to 3x slow.
/// The measured window is cut into blocks of kBlockS, and a block during
/// which steal took more than kMaxSteal of the guest's CPU time is
/// contended. The window ends when it holds --seconds of quiet blocks,
/// or after kWindowCap times --seconds; the quietest blocks that add up
/// to --seconds are timed, the others only checked. Set-up goes on (up
/// to kSetupCapS) until kSetupMinReps reps are quiet; setup_s is the
/// median of the quiet reps, or of the kSetupMinReps quietest.
constexpr double kMaxSteal = 0.03;
constexpr double kBlockS = 2.0;
constexpr double kWindowCap = 2.0;
constexpr double kSetupCapS = 10.0;
/// Pool entries per kind whose modeled parts are rebuilt from the
/// tracer in a traced run.
constexpr int kTraceCheckOps = 4;

std::vector<Workload> workloads() {
  return {
      {"scalefree-2node", "rmat_n24_32", {"bfs", "sssp", "pr"}, 2, 2, true,
       core::WireFormat::kAuto, 1, 0, 32},
      {"serve-batch", "soc-orkut", {"serve"}, 2, 1, false,
       core::WireFormat::kRawIds, 1, 2, 64},
  };
}

core::Config base_config(const Workload& w) {
  core::Config cfg;
  cfg.num_gpus = w.gpus_per_node * w.nodes;
  cfg.sync_mode = core::SyncMode::kBspBarrier;
  cfg.wire_format = w.wire;
  cfg.two_level_combine = w.two_level;
  cfg.host_threads = w.host_threads;
  return cfg;
}

vgpu::Machine make_machine(const Workload& w) {
  return w.nodes > 1
             ? vgpu::Machine::create_cluster("k40", w.gpus_per_node, w.nodes)
             : vgpu::Machine::create("k40", w.gpus_per_node);
}

// ---------------------------------------------------------------------
// Wall-clock spans, recorded from outside the library
// ---------------------------------------------------------------------

struct Span {
  const char* name;
  double start_us;
  double end_us;
  int parent;  ///< index into the span list, -1 for a root
  std::uint64_t op;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void enable(bool on) { enabled_ = on; }

  /// Open a span; returns its index (-1 when disabled).
  int open(const char* name, int parent, std::uint64_t op) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_us(), 0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_us = now_us();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
};

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The guest's aggregate CPU time counters (the "cpu" line of
/// /proc/stat), in clock ticks. All zero where the file is unreadable,
/// which makes every stretch read as quiet.
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  // user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n == 8) {
    for (const unsigned long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  return ticks;
}

/// Share of the guest's CPU time the hypervisor took between two reads.
double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const unsigned long long total = to.total - from.total;
  return total == 0 ? 0.0
                    : static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

/// Which stretches (blocks or set-up reps) to time: every quiet one,
/// and, while the weights taken add up to less than `needed`, the least
/// contended of the rest.
std::vector<bool> choose_timed(const std::vector<double>& steal,
                               const std::vector<double>& weight,
                               double needed) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  std::vector<bool> timed(steal.size(), false);
  double taken = 0;
  for (const std::size_t i : order) {
    if (steal[i] > kMaxSteal && taken >= needed) break;
    timed[i] = true;
    taken += weight[i];
  }
  return timed;
}

/// Runs `fn` inside a span (recorded only while the log is enabled).
template <typename Fn>
void spanned(SpanLog& log, const char* name, int parent, std::uint64_t op,
             Fn&& fn) {
  const int span = log.open(name, parent, op);
  fn();
  log.close(span);
}

// ---------------------------------------------------------------------
// Correctness oracle
// ---------------------------------------------------------------------

template <typename T>
std::uint64_t fnv1a(const std::vector<T>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(T); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

/// Runs fn(i) for i in [0, n) on up to nproc threads. Used only for the
/// oracle precompute, while nothing is being timed.
void parallel_indices(std::size_t n,
                      const std::function<void(std::size_t)>& fn) {
  const std::size_t threads = std::max<std::size_t>(
      1, std::min<std::size_t>(std::thread::hardware_concurrency(), n));
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < n; i += threads) fn(i);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// `count` distinct sources with nonzero degree, drawn from `seed`.
std::vector<VertexT> draw_sources(const graph::Graph& g, int count,
                                  std::uint64_t seed) {
  util::Rng rng(util::splitmix64(seed));
  std::vector<VertexT> sources;
  std::set<VertexT> seen;
  while (static_cast<int>(sources.size()) < count) {
    const auto v = static_cast<VertexT>(rng.next_below(g.num_vertices));
    if (g.degree(v) == 0 || !seen.insert(v).second) continue;
    sources.push_back(v);
  }
  return sources;
}

// ---------------------------------------------------------------------
// Operation statistics
// ---------------------------------------------------------------------

struct OpRecord {
  int kind = 0;
  int idx = 0;
  double ms = 0;
  bool ok = false;
  int phase = 0;  ///< 0 warm-up, 1 measured, 2 measured + traced
  std::uint64_t op = 0;  ///< span operation id
  bool timed = true;     ///< false: ran in a contended block, untimed
};

/// Modeled times and counts of one operation: the same every time the
/// same (kind, idx) operation runs.
using OpStats = std::map<std::string, double>;

OpStats from_run_stats(const vgpu::RunStats& s) {
  auto u = [](std::uint64_t x) { return static_cast<double>(x); };
  return {
      {"supersteps", u(s.iterations)},
      {"edges", u(s.total_edges)},
      {"vertices", u(s.total_vertices)},
      {"comm_items", u(s.total_comm_items)},
      {"combine_items", u(s.total_combine_items)},
      {"comm_bytes", u(s.total_comm_bytes)},
      {"intra_node_bytes", u(s.intra_node_bytes)},
      {"inter_node_bytes", u(s.inter_node_bytes)},
      {"wire_bytes_raw", u(s.wire_bytes_raw)},
      {"wire_bytes_bitmap", u(s.wire_bytes_bitmap)},
      {"wire_bytes_delta", u(s.wire_bytes_delta)},
      {"wire_encode_vertices", u(s.wire_encode_vertices)},
      {"wire_decode_vertices", u(s.wire_decode_vertices)},
      {"gateway_merges", u(s.gateway_merges)},
      {"gateway_dedup_items", u(s.gateway_dedup_items)},
      {"compute_ms", s.modeled_compute_s * 1e3},
      {"comm_ms", s.modeled_comm_s * 1e3},
      {"overhead_ms", s.modeled_overhead_s * 1e3},
      {"overlap_hidden_ms", s.modeled_overlap_hidden_s * 1e3},
      {"modeled_ms", s.modeled_total_s() * 1e3},
  };
}

/// Adds one traced operation's modeled busy time per span name (summed
/// over vGPUs), l(n) per superstep as "barrier", handshake wait wall
/// time, and the items staged at gateways; then clears the tracer.
void harvest_trace(vgpu::Tracer& tracer, std::map<std::string, double>& out) {
  for (const vgpu::TraceSpan& span : tracer.sorted_spans()) {
    if (span.category == vgpu::TraceCategory::kWait) {
      out["wait_wall_ms"] += span.wall_s * 1e3;
      continue;
    }
    out[std::string("span.") + span.name] += (span.end_s - span.start_s) * 1e3;
    if (std::strcmp(span.name, "push_relay") == 0) {
      out["staged_items"] += static_cast<double>(span.items);
    }
  }
  for (const vgpu::SuperstepTrace& step : tracer.supersteps()) {
    out["span.barrier"] += step.overhead_s * 1e3;
  }
  out["dropped_spans"] += static_cast<double>(tracer.dropped_spans());
  tracer.clear();
}

/// The modeled parts of the enactments recorded in `tracer`, rebuilt
/// from its superstep records alone (ms). "modeled_ms" sums each
/// superstep's duration (RunStats::modeled_total_s); "body_ms" leaves
/// out l(n) (ServeStats' W + H).
OpStats superstep_parts(const vgpu::Tracer& tracer) {
  OpStats parts{{"compute_ms", 0.0},        {"comm_ms", 0.0},
                {"overhead_ms", 0.0},       {"overlap_hidden_ms", 0.0},
                {"modeled_ms", 0.0},        {"body_ms", 0.0}};
  for (const vgpu::SuperstepTrace& step : tracer.supersteps()) {
    parts["compute_ms"] += step.max_compute_s() * 1e3;
    parts["comm_ms"] += step.max_comm_s() * 1e3;
    parts["overhead_ms"] += step.overhead_s * 1e3;
    parts["overlap_hidden_ms"] += step.hidden_s * 1e3;
    parts["modeled_ms"] += step.duration_s() * 1e3;
    parts["body_ms"] += step.body_s() * 1e3;
  }
  return parts;
}

/// Tracer-rebuilt modeled parts of one pooled operation.
struct TraceCheck {
  int kind;
  int idx;
  OpStats traced;
};

// ---------------------------------------------------------------------
// Rigs: the set-up state a workload measures
// ---------------------------------------------------------------------

class Rig {
 public:
  virtual ~Rig() = default;
  /// Execute op `idx` of kind `kind` (timed by the caller); fill
  /// `stats`. Spans hang under `parent`.
  virtual void run(int kind, int idx, std::uint64_t op, SpanLog& log,
                   int parent, OpStats& stats) = 0;
  /// Check the answers of the op just run against the oracle.
  virtual bool check(int kind, int idx) = 0;
  virtual void attach_tracer(vgpu::Tracer* tracer) = 0;
  virtual int pool(int kind) const = 0;
  /// Untimed: rerun the first kTraceCheckOps pool entries of each kind
  /// under a private tracer and rebuild their modeled parts from it.
  virtual std::vector<TraceCheck> check_trace() = 0;
};

/// Problem/Enactor pairs for BFS, SSSP and PageRank over one partition.
class GraphRig final : public Rig {
 public:
  GraphRig(const Workload& w, const graph::Graph& g,
           std::shared_ptr<const part::PartitionedGraph> pg)
      : w_(w), g_(g), pg_(std::move(pg)), machine_(make_machine(w)) {
    const core::Config cfg = base_config(w_);
    for (const std::string& kind : w_.kinds) {
      if (kind == "bfs") {
        bfs_.init(pg_, machine_, cfg);
        bfs_enactor_ = std::make_unique<prim::BfsEnactor>(bfs_);
      } else if (kind == "sssp") {
        sssp_.init(pg_, machine_, cfg);
        sssp_enactor_ = std::make_unique<prim::SsspEnactor>(sssp_);
      } else if (kind == "pr") {
        core::Config pr_cfg = cfg;
        pr_cfg.scheme = vgpu::AllocationScheme::kFixedPrealloc;  // §VI-B
        // +1: the first advance happens before the first rank update.
        pr_cfg.max_iterations = kPagerankIterations + 1;
        pr_.init(pg_, machine_, pr_cfg);
        prim::PagerankOptions options;
        options.damping = kPagerankDamping;
        options.threshold = 0;  // always run the full iteration count
        options.max_iterations = kPagerankIterations;
        pr_enactor_ = std::make_unique<prim::PagerankEnactor>(pr_, options);
      }
    }
  }

  /// CPU reference answers for every source in the pool.
  void build_oracle(std::vector<VertexT> sources) {
    sources_ = std::move(sources);
    const bool bfs = bfs_enactor_ != nullptr;
    const bool sssp = sssp_enactor_ != nullptr;
    bfs_hash_.assign(sources_.size(), 0);
    sssp_hash_.assign(sources_.size(), 0);
    parallel_indices(sources_.size(), [&](std::size_t i) {
      if (bfs) bfs_hash_[i] = fnv1a(baselines::cpu_bfs(g_, sources_[i]));
      if (sssp) sssp_hash_[i] = fnv1a(baselines::cpu_sssp(g_, sources_[i]));
    });
    if (pr_enactor_ != nullptr) {
      pr_ref_ = baselines::cpu_pagerank(g_, kPagerankDamping, 0,
                                        kPagerankIterations);
    }
  }

  void run(int kind, int idx, std::uint64_t op, SpanLog& log, int parent,
           OpStats& stats) override {
    const std::string& k = w_.kinds[static_cast<std::size_t>(kind)];
    const VertexT src = sources_[static_cast<std::size_t>(idx)];
    core::EnactorBase* enactor = nullptr;
    spanned(log, "problem.reset", parent, op, [&] {
      if (k == "bfs") {
        bfs_enactor_->reset(src);
        enactor = bfs_enactor_.get();
      } else if (k == "sssp") {
        sssp_enactor_->reset(src);
        enactor = sssp_enactor_.get();
      } else {
        pr_enactor_->reset();
        enactor = pr_enactor_.get();
      }
    });
    vgpu::RunStats rs;
    spanned(log, "enactor.enact", parent, op, [&] { rs = enactor->enact(); });
    stats = from_run_stats(rs);
  }

  bool check(int kind, int idx) override {
    const std::string& k = w_.kinds[static_cast<std::size_t>(kind)];
    const auto i = static_cast<std::size_t>(idx);
    if (k == "bfs") {
      return fnv1a(prim::gather_vertex_values<VertexT>(
                 *pg_, [&](int gpu, VertexT lv) {
                   return bfs_.data(gpu).labels[lv];
                 })) == bfs_hash_[i];
    }
    if (k == "sssp") {
      return fnv1a(prim::gather_vertex_values<ValueT>(
                 *pg_, [&](int gpu, VertexT lv) {
                   return sssp_.data(gpu).dist[lv];
                 })) == sssp_hash_[i];
    }
    const auto rank = prim::gather_vertex_values<ValueT>(
        *pg_, [&](int gpu, VertexT lv) { return pr_.data(gpu).rank[lv]; });
    for (std::size_t v = 0; v < rank.size(); ++v) {
      const double want = pr_ref_[v];
      if (!(std::abs(rank[v] - want) <=
            kPagerankRelTol * std::abs(want) + kPagerankAbsTol)) {
        return false;
      }
    }
    return true;
  }

  void attach_tracer(vgpu::Tracer* tracer) override {
    machine_.set_tracer(tracer);
  }

  int pool(int kind) const override {
    return w_.kinds[static_cast<std::size_t>(kind)] == "pr" ? 1 : w_.pool;
  }

  std::vector<TraceCheck> check_trace() override {
    vgpu::Tracer tracer;
    SpanLog quiet(Clock::now());  // disabled: records nothing
    OpStats stats;
    std::vector<TraceCheck> out;
    machine_.set_tracer(&tracer);
    for (int kind = 0; kind < static_cast<int>(w_.kinds.size()); ++kind) {
      for (int idx = 0; idx < std::min(pool(kind), kTraceCheckOps); ++idx) {
        tracer.clear();
        run(kind, idx, 0, quiet, -1, stats);
        OpStats traced = superstep_parts(tracer);
        traced.erase("body_ms");
        out.push_back({kind, idx, std::move(traced)});
      }
    }
    machine_.set_tracer(nullptr);
    return out;
  }

 private:
  const Workload& w_;
  const graph::Graph& g_;
  std::shared_ptr<const part::PartitionedGraph> pg_;
  vgpu::Machine machine_;
  prim::BfsProblem bfs_;
  prim::SsspProblem sssp_;
  prim::PagerankProblem pr_;
  std::unique_ptr<prim::BfsEnactor> bfs_enactor_;
  std::unique_ptr<prim::SsspEnactor> sssp_enactor_;
  std::unique_ptr<prim::PagerankEnactor> pr_enactor_;
  std::vector<VertexT> sources_;
  std::vector<std::uint64_t> bfs_hash_;
  std::vector<std::uint64_t> sssp_hash_;
  std::vector<ValueT> pr_ref_;
};

serve::ServeOptions serve_options(const Workload& w, vgpu::Tracer* tracer) {
  serve::ServeOptions options;
  options.config = base_config(w);
  options.batch_width = kQueriesPerRequest;
  options.num_lanes = w.serve_lanes;
  options.tracer = tracer;
  return options;
}

/// A QueryService and a pool of 64-query requests with expected answers.
class ServeRig final : public Rig {
 public:
  ServeRig(const Workload& w, const graph::Graph& g)
      : w_(w), g_(g), service_(build(nullptr)) {}

  /// The service takes its tracer at construction, so tracing swaps in
  /// a freshly built service (outside setup_s).
  void attach_tracer(vgpu::Tracer* tracer) override {
    service_.reset();
    service_ = build(tracer);
  }

  /// `pool` requests of 64 queries drawn with generate_queries from
  /// the seed, keeping queries whose source has nonzero degree; the
  /// expected answer of each query comes from the CPU reference run
  /// from its source.
  void build_oracle(std::uint64_t seed) {
    const std::size_t count =
        static_cast<std::size_t>(w_.pool) * kQueriesPerRequest;
    std::vector<serve::Query> all;
    for (std::uint64_t draw = 0; all.size() < count; ++draw) {
      for (const serve::Query& q : serve::generate_queries(
               g_, count, util::splitmix64(seed + draw), /*weighted=*/true)) {
        if (g_.degree(q.src) > 0 && all.size() < count) all.push_back(q);
      }
    }
    // One reference run per distinct (source, class). Each worker keeps
    // only the answers its queries need, so at most one reference vector
    // per thread is alive and the oracle does not set rss_peak_mb.
    std::map<std::pair<VertexT, bool>, std::vector<std::size_t>> users;
    for (std::size_t i = 0; i < all.size(); ++i) {
      users[{all[i].src, all[i].kind == serve::QueryKind::kSsspDist}]
          .push_back(i);
    }
    std::vector<std::pair<std::pair<VertexT, bool>, std::vector<std::size_t>>>
        jobs(users.begin(), users.end());
    std::vector<serve::QueryResult> want(all.size());
    parallel_indices(jobs.size(), [&](std::size_t j) {
      const auto [src, sssp] = jobs[j].first;
      if (sssp) {
        const std::vector<ValueT> dist = baselines::cpu_sssp(g_, src);
        for (const std::size_t i : jobs[j].second) {
          want[i].dist = dist[all[i].dst];
          want[i].reachable = !std::isinf(want[i].dist);
        }
      } else {
        const std::vector<VertexT> depth = baselines::cpu_bfs(g_, src);
        for (const std::size_t i : jobs[j].second) {
          want[i].depth = depth[all[i].dst];
          want[i].reachable = want[i].depth != kInvalidVertex;
        }
      }
    });
    requests_.assign(static_cast<std::size_t>(w_.pool), {});
    expected_.assign(static_cast<std::size_t>(w_.pool), {});
    for (std::size_t i = 0; i < all.size(); ++i) {
      serve::Query q = all[i];
      q.id = i % kQueriesPerRequest + 1;
      want[i].kind = q.kind;
      requests_[i / kQueriesPerRequest].push_back(q);
      expected_[i / kQueriesPerRequest].push_back(want[i]);
    }
  }

  void run(int /*kind*/, int idx, std::uint64_t op, SpanLog& log, int parent,
           OpStats& stats) override {
    const auto& request = requests_[static_cast<std::size_t>(idx)];
    spanned(log, "serve.run", parent, op,
            [&] { results_ = service_->run(request); });
    const serve::ServeStats& s = service_->stats();
    std::set<std::pair<VertexT, bool>> distinct;
    for (const serve::Query& q : request) {
      distinct.insert({q.src, q.kind == serve::QueryKind::kSsspDist});
    }
    auto u = [](std::uint64_t x) { return static_cast<double>(x); };
    stats = {
        {"batches", u(s.batches)},
        {"bfs_batches", u(s.bfs_batches)},
        {"sssp_batches", u(s.sssp_batches)},
        {"requeues", u(s.requeues)},
        {"shed", u(s.shed)},
        {"failed", u(s.failed)},
        {"edges", u(s.total_edges)},
        {"comm_bytes", u(s.total_comm_bytes)},
        {"distinct_sources", u(distinct.size())},
        {"queries", u(request.size())},
        {"compute_ms", s.modeled_compute_s * 1e3},
        {"comm_ms", s.modeled_comm_s * 1e3},
        {"overhead_ms", 0.0},
        {"overlap_hidden_ms", 0.0},
        {"modeled_ms", (s.modeled_compute_s + s.modeled_comm_s) * 1e3},
    };
  }

  bool check(int /*kind*/, int idx) override {
    const auto& expected = expected_[static_cast<std::size_t>(idx)];
    if (results_.size() != expected.size()) return false;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const serve::QueryResult& got = results_[i];
      const serve::QueryResult& want = expected[i];
      const bool answer =
          want.kind == serve::QueryKind::kSsspDist
              ? std::memcmp(&got.dist, &want.dist, sizeof(ValueT)) == 0
              : want.kind != serve::QueryKind::kBfsDepth ||
                    got.depth == want.depth;
      if (got.status != Status::kOk || got.kind != want.kind ||
          got.reachable != want.reachable || !answer) {
        return false;
      }
    }
    return true;
  }

  int pool(int /*kind*/) const override { return w_.pool; }

  /// The service installs its tracer on lane 0 only, so the check runs
  /// a one-lane service, whose batches all land on the tracer. A batch's
  /// modeled statistics do not depend on its lane. ServeStats reports
  /// W and H but not l(n), so modeled_ms is checked against the
  /// superstep bodies.
  std::vector<TraceCheck> check_trace() override {
    vgpu::Tracer tracer;
    serve::ServeOptions options = serve_options(w_, &tracer);
    options.num_lanes = 1;
    serve::QueryService service(g_, options);
    std::vector<TraceCheck> out;
    for (int idx = 0; idx < std::min(w_.pool, kTraceCheckOps); ++idx) {
      tracer.clear();
      service.run(requests_[static_cast<std::size_t>(idx)]);
      const OpStats parts = superstep_parts(tracer);
      out.push_back({0, idx, {{"compute_ms", parts.at("compute_ms")},
                              {"comm_ms", parts.at("comm_ms")},
                              {"modeled_ms", parts.at("body_ms")}}});
    }
    return out;
  }

  const std::vector<serve::QueryResult>& results() const { return results_; }

 private:
  std::unique_ptr<serve::QueryService> build(vgpu::Tracer* tracer) const {
    return std::make_unique<serve::QueryService>(g_, serve_options(w_, tracer));
  }

  const Workload& w_;
  const graph::Graph& g_;
  std::unique_ptr<serve::QueryService> service_;
  std::vector<std::vector<serve::Query>> requests_;
  std::vector<std::vector<serve::QueryResult>> expected_;
  std::vector<serve::QueryResult> results_;
};

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

int run(const util::Options& options) {
  const std::string name = options.get_string("workload", "");
  for (const char* key : {"workload", "seed", "seconds", "out"}) {
    MGG_REQUIRE(options.has(key), std::string("--") + key + " is required");
  }
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 0));
  const double seconds = options.get_double("seconds", 0);
  const bool trace = options.get_int("trace", 0) != 0;
  const std::string out_path = options.get_string("out", "");
  MGG_REQUIRE(seconds > 0, "--seconds must be positive");

  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return w.name == name; });
  MGG_REQUIRE(it != all.end(), "unknown workload '" + name + "'");
  const Workload& w = *it;
  const bool serving = w.serve_lanes > 0;

  SpanLog log(Clock::now());
  log.enable(trace);
  vgpu::Tracer tracer;

  // --- set-up, repeated; setup_s is the median of the timed reps. The
  // last rep is kept.
  std::vector<double> setup_s;
  std::vector<double> setup_steal;
  int quiet_reps = 0;
  std::unique_ptr<graph::Dataset> dataset;
  std::unique_ptr<Rig> rig;
  const auto setup_t0 = Clock::now();
  auto more_setup = [&](int rep) {
    const double spent = since_s(setup_t0);
    return rep < kSetupMinReps ||
           (rep < kSetupMaxReps &&
            (spent < kSetupBudgetS ||
             (quiet_reps < kSetupMinReps && spent < kSetupCapS)));
  };
  for (int rep = 0; more_setup(rep); ++rep) {
    rig.reset();
    dataset.reset();
    const int root = log.open("setup", -1, 0);
    const CpuTicks ticks = read_cpu_ticks();
    const auto t0 = Clock::now();
    spanned(log, "graph.generate", root, 0, [&] {
      dataset = std::make_unique<graph::Dataset>(
          graph::build_dataset(w.dataset, kGraphSeed));
    });
    const graph::Graph& g = dataset->graph;
    if (serving) {
      spanned(log, "serve.construct", root, 0,
              [&] { rig = std::make_unique<ServeRig>(w, g); });
    } else {
      std::shared_ptr<const part::PartitionedGraph> pg;
      spanned(log, "partition.partition", root, 0,
              [&] { pg = core::ProblemBase::partition(g, base_config(w)); });
      spanned(log, "problem.init", root, 0,
              [&] { rig = std::make_unique<GraphRig>(w, g, pg); });
    }
    setup_s.push_back(since_s(t0));
    setup_steal.push_back(steal_share(ticks, read_cpu_ticks()));
    quiet_reps += setup_steal.back() <= kMaxSteal ? 1 : 0;
    log.close(root);
  }
  const std::vector<bool> setup_timed = choose_timed(
      setup_steal, std::vector<double>(setup_s.size(), 1.0), kSetupMinReps);
  const graph::Graph& g = dataset->graph;
  if (serving && trace) {
    // QueryService partitions inside its constructor; time the same
    // partition call alone for the per-layer breakdown (outside
    // setup_s).
    const int root = log.open("setup", -1, 0);
    spanned(log, "partition.partition", root, 0,
            [&] { core::ProblemBase::partition(g, base_config(w)); });
    log.close(root);
  }
  log.enable(false);

  // --- oracle: outside set-up and outside every timed region.
  const auto oracle_t0 = Clock::now();
  if (serving) {
    static_cast<ServeRig&>(*rig).build_oracle(seed);
  } else {
    static_cast<GraphRig&>(*rig).build_oracle(draw_sources(g, w.pool, seed));
  }
  const double oracle_s = since_s(oracle_t0);

  // --- closed loop, one client: kinds round-robin, each cycling its
  // pool. Warm-up runs by elapsed time, then the measured window.
  const int kinds = static_cast<int>(w.kinds.size());
  std::vector<OpRecord> ops;
  std::map<std::pair<int, int>, OpStats> reference;  // (kind, idx)
  std::uint64_t modeled_mismatch = 0;
  std::map<std::string, double> trace_totals;
  std::uint64_t traced_ops = 0;
  std::vector<double> query_ms;
  std::vector<int> next_idx(static_cast<std::size_t>(kinds), 0);
  std::uint64_t op_id = 0;

  auto run_one = [&](int kind, int idx, int phase) {
    OpRecord rec{kind, idx, 0, false, phase, ++op_id};
    OpStats stats;
    const int root = log.open("op", -1, op_id);
    const auto t0 = Clock::now();
    rig->run(kind, idx, op_id, log, root, stats);
    rec.ms = since_s(t0) * 1e3;
    log.close(root);
    rec.ok = rig->check(kind, idx);
    if (phase == 2) {
      harvest_trace(tracer, trace_totals);
      ++traced_ops;
    }
    if (serving && phase == 1) {
      for (const auto& r : static_cast<ServeRig&>(*rig).results()) {
        query_ms.push_back(r.latency_ms);
      }
    }
    const auto [found, inserted] =
        reference.emplace(std::make_pair(kind, idx), stats);
    if (!inserted && found->second != stats) {
      ++modeled_mismatch;
      rec.ok = false;
    }
    ops.push_back(rec);
  };
  // Runs operations until `budget_s` seconds of quiet blocks are in, or
  // the window cap; returns the timed seconds. The warm-up (phase 0) is
  // one block that always counts.
  double contended_s = 0;
  std::vector<std::vector<double>> block_log;  // [phase, s, steal, timed]
  auto loop_for = [&](double budget_s, int phase) {
    const auto t0 = Clock::now();
    std::vector<std::size_t> first_op;
    std::vector<double> steal;
    std::vector<double> spent;
    double quiet_s = 0;
    int kind = 0;
    while (quiet_s < budget_s && since_s(t0) < budget_s * kWindowCap) {
      first_op.push_back(ops.size());
      const double block_s =
          phase == 0 ? budget_s : std::min(kBlockS, budget_s - quiet_s);
      const CpuTicks ticks = read_cpu_ticks();
      const auto block_t0 = Clock::now();
      while (since_s(block_t0) < block_s) {
        int& idx = next_idx[static_cast<std::size_t>(kind)];
        run_one(kind, idx, phase);
        idx = (idx + 1) % rig->pool(kind);
        kind = (kind + 1) % kinds;
      }
      spent.push_back(since_s(block_t0));
      steal.push_back(phase == 0 ? 0.0 : steal_share(ticks, read_cpu_ticks()));
      if (steal.back() <= kMaxSteal) quiet_s += spent.back();
    }
    first_op.push_back(ops.size());
    const std::vector<bool> timed = choose_timed(steal, spent, budget_s);
    double timed_s = 0;
    for (std::size_t b = 0; b < timed.size(); ++b) {
      (timed[b] ? timed_s : contended_s) += spent[b];
      for (std::size_t i = first_op[b]; i < first_op[b + 1]; ++i) {
        ops[i].timed = timed[b];
      }
      if (phase != 0) {
        block_log.push_back({static_cast<double>(phase), spent[b], steal[b],
                             timed[b] ? 1.0 : 0.0});
      }
    }
    return timed_s;
  };

  const double warmup_s = loop_for(kWarmupS, 0);
  double measured_s = 0;
  double traced_s = 0;
  if (trace) {
    measured_s = loop_for(seconds / 2, 1);
    rig->attach_tracer(&tracer);
    // A short untimed warm-up after the swap (a serve rig is rebuilt).
    loop_for(kTracedWarmupS, 0);
    tracer.clear();
    log.enable(true);
    traced_s = loop_for(seconds / 2, 2);
    log.enable(false);
    rig->attach_tracer(nullptr);
  } else {
    measured_s = loop_for(seconds, 1);
  }
  // Modeled statistics cover every pool entry exactly once, whatever
  // the loop reached in the time given.
  for (int kind = 0; kind < kinds; ++kind) {
    for (int idx = 0; idx < rig->pool(kind); ++idx) {
      if (reference.count({kind, idx}) == 0) run_one(kind, idx, 0);
    }
  }
  const std::vector<TraceCheck> trace_checks =
      trace ? rig->check_trace() : std::vector<TraceCheck>{};

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  util::JsonWriter out;
  out.begin_object();
  out.key("workload").value(w.name);
  out.key("seed").value(static_cast<unsigned long long>(seed));
  out.key("meta").begin_object();
  out.key("dataset").value(w.dataset);
  out.key("vertices").value(static_cast<unsigned long long>(g.num_vertices));
  out.key("edges").value(static_cast<unsigned long long>(g.num_edges));
  out.key("vgpu_shape").value(std::to_string(w.nodes) + "x" +
                              std::to_string(w.gpus_per_node));
  out.key("two_level_combine").value(w.two_level);
  out.key("wire_format").value(w.wire == core::WireFormat::kAuto ? "auto"
                                                                 : "raw");
  out.key("sync_mode").value("bsp");
  out.key("host_threads").value(static_cast<long long>(w.host_threads));
  out.key("serve_lanes").value(static_cast<long long>(w.serve_lanes));
  out.key("nproc").value(
      static_cast<long long>(std::thread::hardware_concurrency()));
  out.key("pool").value(static_cast<long long>(w.pool));
  out.key("warmup_s").value(warmup_s);
  out.key("measured_s").value(measured_s);
  out.key("traced_s").value(traced_s);
  out.key("contended_s").value(contended_s);
  out.key("max_steal").value(kMaxSteal);
  out.key("oracle_s").value(oracle_s);
  out.end_object();
  out.key("kinds").begin_array();
  for (const std::string& k : w.kinds) out.value(k);
  out.end_array();
  out.key("setup_s").begin_array();
  for (const double s : setup_s) out.value(s);
  out.end_array();
  out.key("setup_steal").begin_array();
  for (const double s : setup_steal) out.value(s);
  out.end_array();
  out.key("setup_timed").begin_array();
  for (const bool t : setup_timed) out.value(t);
  out.end_array();
  out.key("blocks").begin_array();  // [phase, seconds, steal, timed]
  for (const auto& block : block_log) {
    out.begin_array();
    for (const double v : block) out.value(v);
    out.end_array();
  }
  out.end_array();
  out.key("rss_peak_kb").value(static_cast<long long>(usage.ru_maxrss));
  out.key("modeled_mismatch")
      .value(static_cast<unsigned long long>(modeled_mismatch));
  // [kind, idx, wall ms, ok, phase, op id, timed]
  out.key("ops").begin_array();
  for (const OpRecord& r : ops) {
    out.begin_array();
    out.value(static_cast<long long>(r.kind));
    out.value(static_cast<long long>(r.idx));
    out.value(r.ms);
    out.value(r.ok);
    out.value(static_cast<long long>(r.phase));
    out.value(static_cast<unsigned long long>(r.op));
    out.value(r.timed);
    out.end_array();
  }
  out.end_array();
  out.key("op_stats").begin_array();
  for (const auto& [key, stats] : reference) {
    out.begin_object();
    out.key("kind").value(static_cast<long long>(key.first));
    out.key("idx").value(static_cast<long long>(key.second));
    out.key("stats").begin_object();
    for (const auto& [k, v] : stats) out.key(k).value(v);
    out.end_object();
    out.end_object();
  }
  out.end_array();
  out.key("query_ms").begin_array();
  for (const double q : query_ms) out.value(q);
  out.end_array();
  out.key("traced_ops").value(static_cast<unsigned long long>(traced_ops));
  out.key("trace_totals").begin_object();
  for (const auto& [k, v] : trace_totals) out.key(k).value(v);
  out.end_object();
  out.key("trace_check").begin_array();
  for (const TraceCheck& c : trace_checks) {
    out.begin_object();
    out.key("kind").value(static_cast<long long>(c.kind));
    out.key("idx").value(static_cast<long long>(c.idx));
    out.key("traced").begin_object();
    for (const auto& [k, v] : c.traced) out.key(k).value(v);
    out.end_object();
    out.end_object();
  }
  out.end_array();
  out.key("spans").begin_array();  // [name, start us, end us, parent, op]
  for (const Span& s : log.spans()) {
    out.begin_array();
    out.value(s.name);
    out.value(s.start_us);
    out.value(s.end_us);
    out.value(static_cast<long long>(s.parent));
    out.value(static_cast<unsigned long long>(s.op));
    out.end_array();
  }
  out.end_array();
  out.end_object();
  out.save(out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Options options(argc, argv);
    options.check_unknown(
        {"workload", "seed", "seconds", "trace", "out"});
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
