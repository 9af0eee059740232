#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "primitives/multi_source.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/random.hpp"
#include "vgpu/fault.hpp"

namespace mgg::serve {

namespace {
constexpr ValueT kInf = std::numeric_limits<ValueT>::infinity();
}

double percentile(std::span<const double> sorted, double p) {
  MGG_REQUIRE(!sorted.empty(), "percentile of an empty sample");
  MGG_REQUIRE(p > 0 && p <= 1.0, "percentile p must be in (0, 1]");
  // Nearest rank: ceil(p * n), 1-based. The epsilon guards the FP
  // hazard where p * n lands epsilon *above* an integer (0.99 * 100 =
  // 99.000000000000014) and ceil would overshoot by a whole rank.
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kReachability: return "reachability";
    case QueryKind::kBfsDepth: return "bfs_depth";
    case QueryKind::kSsspDist: return "sssp_dist";
  }
  return "unknown";
}

std::vector<Query> generate_queries(const graph::Graph& g, std::size_t n,
                                    std::uint64_t seed, bool weighted) {
  MGG_REQUIRE(g.num_vertices > 0, "query workload needs a non-empty graph");
  util::Rng rng(seed);
  const int num_kinds = weighted ? 3 : 2;
  std::vector<Query> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Query q;
    q.id = i + 1;
    q.kind = static_cast<QueryKind>(rng.next_below(num_kinds));
    q.src = static_cast<VertexT>(rng.next_below(g.num_vertices));
    q.dst = static_cast<VertexT>(rng.next_below(g.num_vertices));
    queries.push_back(q);
  }
  return queries;
}

std::vector<double> generate_poisson_arrivals(std::size_t n, double qps,
                                              std::uint64_t seed) {
  MGG_REQUIRE(qps > 0, "arrival rate must be positive");
  util::Rng rng(seed);
  std::vector<double> arrivals;
  arrivals.reserve(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Exponential gap of rate qps; next_double() is in [0, 1) so
    // 1 - u is in (0, 1] and log1p(-u) is finite.
    t += -std::log1p(-rng.next_double()) / qps;
    arrivals.push_back(t);
  }
  return arrivals;
}

std::string serve_stats_to_json(const ServeStats& s) {
  util::JsonWriter w;
  w.begin_object();
  w.key("queries").value(static_cast<unsigned long long>(s.queries));
  w.key("answered").value(static_cast<unsigned long long>(s.answered));
  w.key("timed_out").value(static_cast<unsigned long long>(s.timed_out));
  w.key("shed").value(static_cast<unsigned long long>(s.shed));
  w.key("failed").value(static_cast<unsigned long long>(s.failed));
  w.key("batches").value(static_cast<unsigned long long>(s.batches));
  w.key("bfs_batches").value(static_cast<unsigned long long>(s.bfs_batches));
  w.key("sssp_batches").value(
      static_cast<unsigned long long>(s.sssp_batches));
  w.key("requeues").value(static_cast<unsigned long long>(s.requeues));
  w.key("lane_restarts").value(
      static_cast<unsigned long long>(s.lane_restarts));
  w.key("lanes_quarantined").value(
      static_cast<unsigned long long>(s.lanes_quarantined));
  w.key("faults_injected").value(
      static_cast<unsigned long long>(s.faults_injected));
  w.key("wall_s").value(s.wall_s);
  w.key("modeled_compute_s").value(s.modeled_compute_s);
  w.key("modeled_comm_s").value(s.modeled_comm_s);
  w.key("total_edges").value(static_cast<unsigned long long>(s.total_edges));
  w.key("total_comm_bytes").value(
      static_cast<unsigned long long>(s.total_comm_bytes));
  w.key("p50_ms").value(s.p50_ms);
  w.key("p99_ms").value(s.p99_ms);
  w.key("qps").value(s.qps);
  w.key("offered_qps").value(s.offered_qps);
  w.key("lanes").begin_array();
  for (const LaneStats& l : s.lanes) {
    w.begin_object();
    w.key("lane").value(static_cast<long long>(l.lane));
    w.key("state").value(to_string(l.state));
    w.key("batches").value(static_cast<unsigned long long>(l.batches));
    w.key("restarts").value(static_cast<unsigned long long>(l.restarts));
    w.key("requeues").value(static_cast<unsigned long long>(l.requeues));
    w.key("failed_queries").value(
        static_cast<unsigned long long>(l.failed_queries));
    w.key("faults_injected").value(
        static_cast<unsigned long long>(l.faults_injected));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

/// One service lane: an independent vGPU machine with per-query
/// Problem/Enactor state, all over the shared partitioned graph. Owns
/// its chaos injector so a rebuilt lane can inherit it.
struct QueryService::Lane {
  int index = 0;
  vgpu::Machine machine;
  std::unique_ptr<prim::MsBfsProblem> bfs_problem;
  std::unique_ptr<prim::MsEnactorBase> bfs_enactor;
  std::unique_ptr<prim::MsSsspProblem> sssp_problem;
  std::unique_ptr<prim::MsEnactorBase> sssp_enactor;
  std::unique_ptr<vgpu::FaultInjector> injector;

  Lane(int idx, int num_gpus)
      : index(idx), machine(vgpu::Machine::create("k40", num_gpus)) {}
};

std::unique_ptr<QueryService::Lane> QueryService::build_lane(
    int index) const {
  auto l = std::make_unique<Lane>(index, options_.config.num_gpus);
  if (index == 0 && options_.tracer != nullptr) {
    l->machine.set_tracer(options_.tracer);
  }
  l->bfs_problem = std::make_unique<prim::MsBfsProblem>(options_.batch_width);
  l->bfs_problem->init(pg_, l->machine, options_.config);
  l->bfs_enactor = std::make_unique<prim::MsBfsEnactor>(*l->bfs_problem);
  if (weighted_) {
    l->sssp_problem =
        std::make_unique<prim::MsSsspProblem>(options_.batch_width);
    l->sssp_problem->init(pg_, l->machine, options_.config);
    l->sssp_enactor = std::make_unique<prim::MsSsspEnactor>(*l->sssp_problem);
  }
  return l;
}

void QueryService::rebuild_lane(int index) {
  Lane& old = *lanes_[static_cast<std::size_t>(index)];
  // Detach the injector BEFORE building the fresh machine so the
  // rebuild's own init allocations are not chaos targets — a restart
  // models swapping in replacement hardware, which arrives healthy.
  std::unique_ptr<vgpu::FaultInjector> injector = std::move(old.injector);
  auto fresh = build_lane(index);
  if (injector != nullptr) {
    if (injector->lost_device() >= 0) injector->acknowledge_device_loss();
    fresh->injector = std::move(injector);
    fresh->machine.set_fault_injector(fresh->injector.get());
  }
  lanes_[static_cast<std::size_t>(index)] = std::move(fresh);
  MGG_LOG_INFO << "lane " << index << " restarted over shared partition";
}

QueryService::QueryService(const graph::Graph& g,
                           const ServeOptions& options)
    : options_(options) {
  MGG_REQUIRE(options_.batch_width >= 1 &&
                  options_.batch_width <= prim::kMaxBatchWidth,
              "batch width must be in [1, 64]");
  MGG_REQUIRE(options_.num_lanes >= 1, "need at least one lane");
  MGG_REQUIRE(options_.max_batch_retries >= 0,
              "max_batch_retries must be >= 0");
  MGG_REQUIRE(options_.max_lane_restarts >= 0,
              "max_lane_restarts must be >= 0");
  pg_ = core::ProblemBase::partition(g, options_.config);
  weighted_ = g.has_values();
  for (int lane = 0; lane < options_.num_lanes; ++lane) {
    auto l = build_lane(lane);
    l->injector = vgpu::make_lane_injector_from_flags(
        options_.fault_plan, options_.fault_seed, lane,
        options_.config.num_gpus);
    if (l->injector != nullptr) {
      l->machine.set_fault_injector(l->injector.get());
      if (lane == 0 && options_.tracer != nullptr) {
        l->injector->set_tracer(options_.tracer);
      }
    }
    lanes_.push_back(std::move(l));
  }
  MGG_LOG_INFO << "query service up: " << lanes_.size() << " lane(s) x "
               << options_.config.num_gpus << " vGPU(s), batch width "
               << options_.batch_width << (weighted_ ? ", weighted" : "");
}

QueryService::~QueryService() = default;

bool QueryService::Batch::add(std::size_t query_index, VertexT src,
                              std::size_t width) {
  const auto it = std::find(sources.begin(), sources.end(), src);
  if (it == sources.end() && sources.size() >= width) return false;
  const int slot = static_cast<int>(it - sources.begin());
  if (it == sources.end()) sources.push_back(src);
  members.push_back({query_index, slot});
  return true;
}

std::vector<QueryResult> QueryService::run(std::span<const Query> queries) {
  return execute(queries, {}, /*open_loop=*/false);
}

std::vector<QueryResult> QueryService::run_open_loop(
    std::span<const Query> queries, std::span<const double> arrival_s) {
  MGG_REQUIRE(arrival_s.size() == queries.size(),
              "one arrival time per query");
  for (std::size_t i = 1; i < arrival_s.size(); ++i) {
    MGG_REQUIRE(arrival_s[i] >= arrival_s[i - 1],
                "arrival times must be ascending");
  }
  MGG_REQUIRE(arrival_s.empty() || arrival_s.front() >= 0,
              "arrival times must be >= 0");
  return execute(queries, arrival_s, /*open_loop=*/true);
}

std::vector<QueryResult> QueryService::execute(
    std::span<const Query> queries, std::span<const double> arrival_s,
    const bool open_loop) {
  stats_ = ServeStats{};
  stats_.queries = queries.size();
  stats_.lanes.resize(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    stats_.lanes[i].lane = static_cast<int>(i);
  }
  std::vector<QueryResult> results(queries.size());
  if (queries.empty()) return results;  // well-defined zeroed stats

  // Validate before any thread exists so bad input still throws from
  // the caller's stack.
  for (const Query& q : queries) {
    MGG_REQUIRE(q.src < pg_->global_vertices() &&
                    q.dst < pg_->global_vertices(),
                "query endpoint out of range");
    MGG_REQUIRE(q.kind != QueryKind::kSsspDist || weighted_,
                "SSSP query on an unweighted graph");
    MGG_REQUIRE(q.deadline_s >= 0, "query deadline must be >= 0");
  }

  // Fresh chaos schedule per run: same service + same workload replays
  // the same faults.
  for (auto& l : lanes_) {
    if (l->injector != nullptr) l->injector->reset_counters();
  }

  Supervisor supervisor(static_cast<int>(lanes_.size()),
                        options_.max_lane_restarts,
                        options_.max_batch_retries + 1);

  util::WallTimer run_timer;
  std::deque<Batch> batches;  // stable references under push_back
  std::mutex batch_mutex;
  BatchQueue queue;
  std::atomic<std::uint64_t> next_batch_id{1};
  std::vector<double> admit_ms(queries.size(), 0.0);
  std::vector<char> resolved(queries.size(), 0);
  // Every query must end terminal (answered, timed out, failed, or
  // shed); the last terminal resolution closes the queue.
  std::atomic<std::size_t> outstanding{queries.size()};
  std::atomic<std::size_t> pending{0};  // admitted but unresolved
  std::exception_ptr fatal;
  std::mutex fatal_mutex;

  const auto complete_one = [&] {
    if (outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      queue.close();
    }
  };
  // Terminal non-answer for an *admitted* query. Each query has a
  // single writer at any time (it belongs to at most one live ticket),
  // so `resolved` needs no lock.
  const auto fail_query = [&](std::size_t qi, Status status, int attempts,
                              int lane_idx) {
    if (resolved[qi]) return;
    resolved[qi] = 1;
    QueryResult& r = results[qi];
    r.id = queries[qi].id;
    r.kind = queries[qi].kind;
    r.status = status;
    r.attempts = attempts;
    r.lane = lane_idx;
    r.latency_ms = run_timer.milliseconds() - admit_ms[qi];
    if (lane_idx >= 0) supervisor.stats(lane_idx).failed_queries++;
    pending.fetch_sub(1, std::memory_order_acq_rel);
    complete_one();
  };
  const auto shed_query = [&](std::size_t qi) {  // never admitted
    resolved[qi] = 1;
    QueryResult& r = results[qi];
    r.id = queries[qi].id;
    r.kind = queries[qi].kind;
    r.status = Status::kResourceExhausted;
    r.attempts = 0;
    complete_one();
  };
  // Re-pack a failed batch's unresolved members into a fresh batch
  // (fresh slot assignment — answers are per-slot deterministic, so
  // re-packing cannot change them) and requeue it.
  const auto requeue_unresolved = [&](const Batch& failed, int next_attempt) {
    Batch nb;
    nb.sssp = failed.sssp;
    nb.id = next_batch_id.fetch_add(1, std::memory_order_relaxed);
    for (const Batch::Member& m : failed.members) {
      if (!resolved[m.query_index]) {
        nb.add(m.query_index, queries[m.query_index].src);
      }
    }
    if (nb.members.empty()) return;
    std::size_t index;
    {
      std::lock_guard<std::mutex> lock(batch_mutex);
      index = batches.size();
      batches.push_back(std::move(nb));
    }
    queue.push({index, next_attempt});
  };

  // Enact + extract. Only unresolved members are answered; extra slots
  // (members that expired pre-dispatch) are enacted harmlessly — every
  // slot's labels are independent.
  const auto enact_batch = [&](Lane& lane, Batch& batch, double budget_s,
                               int attempt) {
    vgpu::Tracer* tracer = lane.machine.tracer();
    if (tracer != nullptr) tracer->set_batch(batch.id);
    prim::MsEnactorBase& enactor =
        batch.sssp ? *lane.sssp_enactor : *lane.bfs_enactor;
    enactor.set_enact_deadline(budget_s);
    enactor.reset(batch.sources);
    const vgpu::RunStats run = enactor.enact();
    if (tracer != nullptr) tracer->set_batch(0);
    const double done_ms = run_timer.milliseconds();
    for (const Batch::Member& m : batch.members) {
      if (resolved[m.query_index]) continue;
      const Query& q = queries[m.query_index];
      QueryResult& r = results[m.query_index];
      r.id = q.id;
      r.kind = q.kind;
      r.batch = batch.id;
      r.lane = lane.index;
      r.status = Status::kOk;
      r.attempts = attempt + 1;
      r.latency_ms = done_ms - admit_ms[m.query_index];
      const auto [gpu, lv] = lane.bfs_problem->locate(q.dst);
      const std::size_t stride = pg_->sub(gpu).num_total();
      const std::size_t at = static_cast<std::size_t>(m.slot) * stride + lv;
      if (batch.sssp) {
        const ValueT d = lane.sssp_problem->data(gpu).dist[at];
        r.dist = d;
        r.reachable = d < kInf;
      } else {
        const VertexT d = lane.bfs_problem->data(gpu).depth[at];
        r.depth = d;
        r.reachable = d != kInvalidVertex;
      }
      resolved[m.query_index] = 1;
      pending.fetch_sub(1, std::memory_order_acq_rel);
      complete_one();
    }
    batch.completed = true;
    batch.run = run;
    supervisor.stats(lane.index).batches++;
  };

  const auto lane_loop = [&](const int lane_idx) {
    while (true) {
      std::optional<BatchTicket> ticket = queue.pop();
      if (!ticket.has_value()) break;
      Batch* batch = nullptr;
      {
        std::lock_guard<std::mutex> lock(batch_mutex);
        batch = &batches[ticket->batch_index];
      }
      Lane& lane = *lanes_[static_cast<std::size_t>(lane_idx)];

      // Pre-dispatch deadline sweep: expired members resolve kTimedOut
      // without burning an enactment. The survivors bound the batch
      // budget — but only when EVERY live member carries a deadline;
      // an undeadlined member must never be aborted by a neighbor's.
      const double now_s = run_timer.seconds();
      bool live = false;
      bool all_deadlined = true;
      double min_remain_s = 0;
      for (const Batch::Member& m : batch->members) {
        if (resolved[m.query_index]) continue;
        const Query& q = queries[m.query_index];
        if (q.deadline_s <= 0) {
          all_deadlined = false;
          live = true;
          continue;
        }
        const double remain =
            admit_ms[m.query_index] / 1000.0 + q.deadline_s - now_s;
        if (remain <= 0) {
          fail_query(m.query_index, Status::kTimedOut, ticket->attempt,
                     lane_idx);
          continue;
        }
        min_remain_s =
            live && all_deadlined ? std::min(min_remain_s, remain) : remain;
        live = true;
      }
      if (!live) continue;
      const double budget_s = all_deadlined ? min_remain_s : 0;

      try {
        enact_batch(lane, *batch, budget_s, ticket->attempt);
      } catch (const Error& e) {
        if (lane.machine.tracer() != nullptr) {
          lane.machine.tracer()->set_batch(0);
        }
        const Status st = e.status();
        const bool supervised = st == Status::kTimedOut ||
                                st == Status::kUnavailable ||
                                st == Status::kOutOfMemory;
        if (!supervised) {
          std::lock_guard<std::mutex> lock(fatal_mutex);
          if (fatal == nullptr) fatal = std::current_exception();
          queue.close();
          break;
        }
        MGG_LOG_WARN << "lane " << lane_idx << " batch " << batch->id
                     << " attempt " << ticket->attempt + 1 << " failed: "
                     << e.what();
        const Supervisor::Decision d =
            supervisor.on_failure(lane_idx, st, ticket->attempt);
        if (d.retry_batch) {
          requeue_unresolved(*batch, ticket->attempt + 1);
        } else {
          for (const Batch::Member& m : batch->members) {
            fail_query(m.query_index, d.query_status, ticket->attempt + 1,
                       lane_idx);
          }
        }
        if (d.restart_lane) {
          try {
            rebuild_lane(lane_idx);
            supervisor.on_restarted(lane_idx);
          } catch (const std::exception& rebuild_error) {
            MGG_LOG_WARN << "lane " << lane_idx
                         << " rebuild failed, quarantining: "
                         << rebuild_error.what();
            supervisor.quarantine(lane_idx);
          }
        }
        if (supervisor.state(lane_idx) == LaneState::kQuarantined) {
          if (supervisor.live_lanes() == 0) {
            // Last lane down: fail everything still queued so no
            // caller waits on a batch nobody can run.
            for (const BatchTicket& t : queue.drain()) {
              Batch* dead = nullptr;
              {
                std::lock_guard<std::mutex> lock(batch_mutex);
                dead = &batches[t.batch_index];
              }
              for (const Batch::Member& m : dead->members) {
                fail_query(m.query_index, Status::kUnavailable, t.attempt,
                           lane_idx);
              }
            }
            queue.close();
          }
          break;
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(fatal_mutex);
        if (fatal == nullptr) fatal = std::current_exception();
        queue.close();
        break;
      }
    }
  };

  // Batching, one step for both modes: admit(i) adds query i to its
  // class's open batch (a query on an already-batched source shares
  // its slot, so a batch can answer more queries than its width) or,
  // when that batch is full, queues it and opens the next. A batch
  // takes its queue index — its slot in `batches` — when it opens, and
  // its ticket is queued when it fills or admission goes idle or ends.
  // Until then only the admitting thread touches it; the deque's
  // push_back moves no element, so the pointer survives requeues.
  const auto width = static_cast<std::size_t>(options_.batch_width);
  Batch* open[2] = {nullptr, nullptr};  // per class: BFS, SSSP
  std::size_t open_index[2] = {0, 0};
  const auto flush = [&](int cls) {
    if (open[cls] == nullptr) return;
    queue.push({open_index[cls], 0});
    open[cls] = nullptr;
  };
  const auto admit = [&](std::size_t i) {
    const Query& q = queries[i];
    const bool sssp = q.kind == QueryKind::kSsspDist;
    const int cls = sssp ? 1 : 0;
    pending.fetch_add(1, std::memory_order_acq_rel);
    if (open[cls] != nullptr && open[cls]->add(i, q.src, width)) return;
    flush(cls);
    std::lock_guard<std::mutex> lock(batch_mutex);
    open_index[cls] = batches.size();
    open[cls] = &batches.emplace_back();
    open[cls]->id = next_batch_id.fetch_add(1, std::memory_order_relaxed);
    open[cls]->sssp = sssp;
    open[cls]->add(i, q.src);
  };

  // Closed loop: admit everything at t = 0 before the lanes start.
  // Open loop: a dispatcher admits each query at its arrival.
  std::thread dispatcher;
  if (!open_loop) {
    for (std::size_t i = 0; i < queries.size(); ++i) admit(i);
    flush(0);
    flush(1);
  } else {
    dispatcher = std::thread([&] {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const double gap = arrival_s[i] - run_timer.seconds();
        if (gap > 0) {
          // Going idle until the next arrival: hand lanes whatever is
          // half-built instead of sitting on it (adaptive batching).
          flush(0);
          flush(1);
          std::this_thread::sleep_for(std::chrono::duration<double>(gap));
        }
        if (options_.admission_capacity > 0 &&
            pending.load(std::memory_order_acquire) >=
                options_.admission_capacity) {
          shed_query(i);  // reject-newest backpressure
          continue;
        }
        admit_ms[i] = run_timer.milliseconds();
        admit(i);
      }
      flush(0);
      flush(1);
    });
  }

  std::vector<std::thread> lane_threads;
  lane_threads.reserve(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lane_threads.emplace_back(lane_loop, static_cast<int>(i));
  }
  for (std::thread& t : lane_threads) t.join();
  if (dispatcher.joinable()) dispatcher.join();
  stats_.wall_s = run_timer.seconds();

  if (fatal != nullptr) std::rethrow_exception(fatal);

  // Catch-all: a query can slip through terminal resolution only when
  // every lane died with tickets still landing (open loop). Nothing
  // can answer it now.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (resolved[i]) continue;
    QueryResult& r = results[i];
    r.id = queries[i].id;
    r.kind = queries[i].kind;
    r.status = Status::kUnavailable;
  }

  // Modeled sums in batch-index order — schedule-independent, so two
  // identical runs report bit-identical modeled stats.
  for (const Batch& b : batches) {
    if (!b.completed) continue;
    stats_.batches += 1;
    if (b.sssp) {
      stats_.sssp_batches += 1;
    } else {
      stats_.bfs_batches += 1;
    }
    stats_.modeled_compute_s += b.run.modeled_compute_s;
    stats_.modeled_comm_s += b.run.modeled_comm_s;
    stats_.total_edges += b.run.total_edges;
    stats_.total_comm_bytes += b.run.total_comm_bytes;
  }

  std::vector<double> latencies;
  latencies.reserve(results.size());
  for (const QueryResult& r : results) {
    switch (r.status) {
      case Status::kOk:
        stats_.answered += 1;
        latencies.push_back(r.latency_ms);
        break;
      case Status::kTimedOut: stats_.timed_out += 1; break;
      case Status::kResourceExhausted: stats_.shed += 1; break;
      default: stats_.failed += 1; break;
    }
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    stats_.p50_ms = percentile(latencies, 0.50);
    stats_.p99_ms = percentile(latencies, 0.99);
  }
  stats_.qps = stats_.wall_s > 0
                   ? static_cast<double>(queries.size()) / stats_.wall_s
                   : 0;
  if (open_loop && !arrival_s.empty() && arrival_s.back() > 0) {
    stats_.offered_qps =
        static_cast<double>(queries.size()) / arrival_s.back();
  }

  stats_.lanes = supervisor.all_stats();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const auto* injector = lanes_[i]->injector.get();
    stats_.lanes[i].faults_injected =
        injector != nullptr ? injector->injected_count() : 0;
    stats_.faults_injected += stats_.lanes[i].faults_injected;
    stats_.requeues += stats_.lanes[i].requeues;
    stats_.lane_restarts += stats_.lanes[i].restarts;
    if (stats_.lanes[i].state == LaneState::kQuarantined) {
      stats_.lanes_quarantined += 1;
    }
  }
  return results;
}

}  // namespace mgg::serve
