// QueryService: admission, batching, lane scheduling, and resilience
// for point queries over one shared partitioned graph
// (docs/architecture.md §13, §15).
//
// The state split that makes this work is in core/problem.hpp: the
// graph is partitioned exactly once (ProblemBase::partition) and every
// lane's Problems init() from the shared read-only handle, so adding a
// lane costs per-query state (labels, frontiers, comm buffers) but
// never re-partitions or copies a CSR slice.
//
// Admission packs queries into batches of at most `batch_width`
// distinct sources — queries on the same source share a slot, and
// reachability/BFS-depth queries share BFS batches while
// SSSP-distance queries form SSSP batches. One admit step does this
// for both modes: run() admits every query before the lanes start,
// run_open_loop()'s dispatcher at each arrival. A batch takes its
// queue index when it opens, so of the queued batches the one that
// opened first runs first. Each batch is one multi-source enactment
// (prim::MsEnactorBase) answering every member at once: the paper's
// W and H costs (and S supersteps) are paid per *batch*, which is the
// whole throughput story (bench/serve_throughput gates the ≥3x W+H
// reduction vs individual runs).
//
// Lanes are independent vGPU machines with their own Problem/Enactor
// pairs; a work queue (serve/supervisor.hpp) feeds them batches, so
// service throughput scales with lanes while every lane's host-side
// kernels ride the one shared worker pool (§12). Lane 0 optionally
// carries a Tracer whose spans are tagged with the batch id
// (Tracer::set_batch) for per-query filtering in Perfetto.
//
// Resilience (§15): run() never throws for a fault-induced failure.
// A failed enactment is classified by the Supervisor — deadline aborts
// retry on a healthy lane, lane-fatal faults (device loss, retry
// exhaustion, OOM collapse) restart the lane over the shared partition
// and requeue its unresolved queries at once as a fresh batch, within a
// bounded retry budget. Queries resolve with a per-query Status (kOk
// answers are bit-identical to a fault-free individual run); the
// accounting invariant answered + shed + failed == submitted always
// holds, and bench/serve_chaos gates it under injected chaos. In a
// fault-free run none of this machinery charges any modeled cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "serve/query.hpp"
#include "serve/supervisor.hpp"
#include "util/timer.hpp"
#include "vgpu/cost.hpp"
#include "vgpu/trace.hpp"

namespace mgg::serve {

struct ServeOptions {
  core::Config config;                  ///< per-lane enactment config
  int batch_width = 64;                 ///< max distinct sources/batch
  int num_lanes = 1;                    ///< concurrent "k40" machines
  /// Installed on lane 0's machine; batched spans are tagged with the
  /// batch id. Null = no tracing.
  vgpu::Tracer* tracer = nullptr;

  // --- resilience knobs (docs/architecture.md §15) ---
  /// Extra enactment attempts a batch may spend after its first fails
  /// (so a batch is enacted at most max_batch_retries + 1 times).
  int max_batch_retries = 2;
  /// Fresh-Machine rebuilds each lane may spend on lane-fatal faults
  /// before it is quarantined for the rest of the run.
  int max_lane_restarts = 2;
  /// Open-loop admission bound: arrivals beyond this many admitted but
  /// unresolved queries are shed with kResourceExhausted instead of
  /// queued (reject-newest). 0 = unbounded. Closed-loop run() admits
  /// everything up front and ignores this.
  std::size_t admission_capacity = 0;
  /// Scripted chaos: FaultPlan::parse text armed on lane 0 only (the
  /// targeted-scenario lane). Empty = none.
  std::string fault_plan;
  /// Seeded chaos: nonzero derives an independent deterministic
  /// transient plan for every lane via vgpu::lane_fault_seed.
  std::uint64_t fault_seed = 0;
};

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `ceil(p * n)` of the sample at or below it.
/// Unlike the truncating `p * (n - 1)` index this never under-reports
/// on small n (n = 2: p50 is the max, not the min) and p100 is always
/// the max. `p` in (0, 1]; `sorted` must be non-empty and ascending.
double percentile(std::span<const double> sorted, double p);

/// Aggregate service-side statistics for the last run(). A zero-query
/// run returns this fully zeroed (lanes sized but all-zero).
struct ServeStats {
  std::uint64_t queries = 0;       ///< submitted
  std::uint64_t answered = 0;      ///< resolved kOk (bit-identical answers)
  std::uint64_t timed_out = 0;     ///< resolved kTimedOut (deadline)
  std::uint64_t shed = 0;          ///< resolved kResourceExhausted
  std::uint64_t failed = 0;        ///< resolved kUnavailable
  std::uint64_t batches = 0;       ///< completed enactments
  std::uint64_t bfs_batches = 0;
  std::uint64_t sssp_batches = 0;
  std::uint64_t requeues = 0;      ///< failed batches re-packed + requeued
  std::uint64_t lane_restarts = 0; ///< fresh-Machine rebuilds
  std::uint64_t lanes_quarantined = 0;
  std::uint64_t faults_injected = 0;  ///< Σ lane injector events
  double wall_s = 0;               ///< run() wall time
  double modeled_compute_s = 0;    ///< Σ completed-batch W (modeled)
  double modeled_comm_s = 0;       ///< Σ completed-batch H (modeled)
  std::uint64_t total_edges = 0;   ///< Σ completed-batch edge work items
  std::uint64_t total_comm_bytes = 0;
  double p50_ms = 0;               ///< median answered-query latency
  double p99_ms = 0;
  double qps = 0;                  ///< submitted queries / wall_s
  double offered_qps = 0;          ///< open loop: n / last arrival (0 else)
  std::vector<LaneStats> lanes;    ///< per-lane supervision counters
};

/// JSON export of a ServeStats (stats-io idiom: flat keys + a "lanes"
/// array), for the bench emit path and downstream plotting.
std::string serve_stats_to_json(const ServeStats& stats);

class QueryService {
 public:
  /// Partition `g` once and build `num_lanes` lanes over the shared
  /// partition. SSSP lanes require edge values; a weight-free graph
  /// only admits the BFS query kinds.
  QueryService(const graph::Graph& g, const ServeOptions& options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Closed loop: admit every query at t = 0 (the open loop's admit
  /// step with every arrival at 0 and no capacity bound), multiplex
  /// the batches across the lanes, extract per-query answers.
  /// results[i] answers queries[i]; check results[i].status — under
  /// injected faults some queries may resolve kTimedOut/kUnavailable,
  /// but run() itself only throws for non-fault errors (bad input,
  /// internal bugs). Answered queries are deterministic — answers do
  /// not depend on batch packing, lane scheduling, or retries.
  std::vector<QueryResult> run(std::span<const Query> queries);

  /// Open loop: queries[i] arrives at arrival_s[i] (ascending seconds
  /// from run start; see generate_poisson_arrivals). Admission happens
  /// at arrival — arrivals beyond `admission_capacity` pending are
  /// shed with kResourceExhausted — and admitted queries batch
  /// adaptively: an open batch flushes when full or when the arrival
  /// process goes idle. Deadlines count from arrival.
  std::vector<QueryResult> run_open_loop(std::span<const Query> queries,
                                         std::span<const double> arrival_s);

  const ServeStats& stats() const noexcept { return stats_; }
  const part::PartitionedGraph& partitioned() const { return *pg_; }
  int num_lanes() const noexcept
      { return static_cast<int>(lanes_.size()); }

 private:
  struct Lane;
  /// One packed enactment: `sources[slot]` for each distinct source,
  /// `members` mapping query index -> slot. The completing lane thread
  /// records the outcome in place; stats are summed in batch-index
  /// order after the lanes join, so modeled sums are schedule-
  /// independent.
  struct Batch {
    std::uint64_t id = 0;  ///< 1-based; Tracer batch tag
    bool sssp = false;
    std::vector<VertexT> sources;
    struct Member {
      std::size_t query_index;
      int slot;
    };
    std::vector<Member> members;
    bool completed = false;   ///< enactment succeeded; `run` is valid
    vgpu::RunStats run;

    /// Add query `query_index` on `src`: it shares the slot of an
    /// already-batched source, or `src` takes the next slot. Returns
    /// false, adding nothing, when `src` needs a new slot but the
    /// batch already holds `width` sources.
    bool add(std::size_t query_index, VertexT src,
             std::size_t width = std::numeric_limits<std::size_t>::max());
  };

  /// Machine + Problem/Enactor pairs over pg_ (tracer on lane 0); the
  /// caller attaches the fault injector.
  std::unique_ptr<Lane> build_lane(int index) const;
  /// Fresh-Machine lane restart: rebuild lane `index` over the shared
  /// partition, carrying its injector over. A permanent device loss is
  /// acknowledged (hardware-replacement model: the new machine's
  /// devices are all live); transient counters are preserved.
  void rebuild_lane(int index);
  std::vector<QueryResult> execute(std::span<const Query> queries,
                                   std::span<const double> arrival_s,
                                   bool open_loop);

  ServeOptions options_;
  bool weighted_ = false;
  std::shared_ptr<const part::PartitionedGraph> pg_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  ServeStats stats_;
};

}  // namespace mgg::serve
