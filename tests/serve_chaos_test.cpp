// Serve-layer resilience suite (docs/architecture.md §15): the
// supervision primitives in isolation (Supervisor.*) and the
// QueryService's end-to-end behavior under injected faults
// (ServeChaos.*) — deadlines resolve kTimedOut instead of throwing, a
// permanent device loss restarts the lane and requeues its batch to
// healthy lanes, exhausted budgets quarantine without sinking the
// service, open-loop overload sheds instead of queueing without bound,
// and in every scenario answered + timed_out + shed + failed ==
// submitted with answered queries bit-identical to individual runs.
// Runs under TSan in scripts/check.sh (lanes, dispatcher, and
// supervision share state across threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "primitives/bfs.hpp"
#include "primitives/sssp.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/supervisor.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "vgpu/fault.hpp"

namespace mgg {
namespace {

using serve::BatchQueue;
using serve::BatchTicket;
using serve::LaneState;
using serve::Supervisor;

// ---------------------------------------------------------------------
// Supervisor.*: policy and queue primitives in isolation.
// ---------------------------------------------------------------------

TEST(Supervisor, BatchQueuePopsSmallestReadyTicketFirst) {
  BatchQueue queue;
  queue.push({2, 0});
  queue.push({0, 1});
  queue.push({1, 0});
  EXPECT_EQ(queue.size(), 3u);
  // Lowest batch index first, regardless of push order.
  EXPECT_EQ(queue.pop()->batch_index, 0u);
  EXPECT_EQ(queue.pop()->batch_index, 1u);
  EXPECT_EQ(queue.pop()->batch_index, 2u);
  queue.close();
  EXPECT_FALSE(queue.pop().has_value());  // closed + empty
}

TEST(Supervisor, BatchQueueDrainReturnsEverythingUnripened) {
  BatchQueue queue;
  queue.push({0, 0});
  queue.push({1, 2});
  const auto drained = queue.drain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(Supervisor, TimeoutIsLaneSafeAndRetried) {
  Supervisor sup(2, /*max_lane_restarts=*/1, /*max_attempts=*/3);
  const auto d = sup.on_failure(0, Status::kTimedOut, 0);
  EXPECT_TRUE(d.retry_batch);
  EXPECT_FALSE(d.restart_lane);
  EXPECT_FALSE(d.quarantine_lane);
  EXPECT_EQ(d.query_status, Status::kTimedOut);
  EXPECT_EQ(sup.state(0), LaneState::kHealthy);
  EXPECT_EQ(sup.live_lanes(), 2);
}

TEST(Supervisor, LaneFatalRestartsThenQuarantines) {
  Supervisor sup(2, /*max_lane_restarts=*/1, /*max_attempts=*/3);

  const auto first = sup.on_failure(0, Status::kUnavailable, 0);
  EXPECT_TRUE(first.restart_lane);
  EXPECT_FALSE(first.quarantine_lane);
  EXPECT_TRUE(first.retry_batch);
  EXPECT_EQ(sup.state(0), LaneState::kRestarting);
  EXPECT_EQ(sup.live_lanes(), 2);  // restarting still counts as live
  sup.on_restarted(0);
  EXPECT_EQ(sup.state(0), LaneState::kHealthy);

  // Restart budget (1) spent: the next lane-fatal failure quarantines.
  const auto second = sup.on_failure(0, Status::kOutOfMemory, 1);
  EXPECT_FALSE(second.restart_lane);
  EXPECT_TRUE(second.quarantine_lane);
  EXPECT_TRUE(second.retry_batch);  // lane 1 is still alive to run it
  EXPECT_EQ(second.query_status, Status::kUnavailable);
  EXPECT_EQ(sup.state(0), LaneState::kQuarantined);
  EXPECT_EQ(sup.live_lanes(), 1);
  EXPECT_EQ(sup.stats(0).restarts, 1u);
}

TEST(Supervisor, NoRetryWhenAttemptsExhaustedOrNoLaneLeft) {
  {
    Supervisor sup(2, 1, /*max_attempts=*/2);
    // Attempt 1 of a max_attempts=2 budget: no further retry.
    const auto d = sup.on_failure(0, Status::kTimedOut, 1);
    EXPECT_FALSE(d.retry_batch);
    EXPECT_EQ(d.query_status, Status::kTimedOut);
  }
  {
    Supervisor sup(1, 0, /*max_attempts=*/2);
    // Single lane quarantined on its first lane-fatal failure: no lane
    // is left to retry on, whatever the attempt budget says.
    const auto d = sup.on_failure(0, Status::kUnavailable, 0);
    EXPECT_TRUE(d.quarantine_lane);
    EXPECT_FALSE(d.retry_batch);
    EXPECT_EQ(sup.live_lanes(), 0);
  }
}

// ---------------------------------------------------------------------
// ServeChaos.*: QueryService end to end under faults.
// ---------------------------------------------------------------------

const graph::Graph& chaos_graph() {
  static const graph::Graph g = test::small_weighted_rmat();
  return g;
}

serve::ServeOptions chaos_options(int gpus, int lanes) {
  serve::ServeOptions opts;
  opts.config = test::config_for(gpus);
  opts.num_lanes = lanes;
  return opts;
}

/// answered + timed_out + shed + failed == submitted: no query is ever
/// silently dropped, whatever was injected.
void expect_zero_lost(const serve::ServeStats& s) {
  EXPECT_EQ(s.answered + s.timed_out + s.shed + s.failed, s.queries);
}

/// kOk answers must match the individual fault-free run bit for bit.
void expect_answers_identical(std::span<const serve::Query> queries,
                              std::span<const serve::QueryResult> results) {
  static std::map<VertexT, std::vector<VertexT>> bfs_cache;
  static std::map<VertexT, std::vector<ValueT>> sssp_cache;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    const auto& r = results[i];
    if (r.status != Status::kOk) continue;
    EXPECT_EQ(r.id, q.id);
    if (q.kind == serve::QueryKind::kSsspDist) {
      auto it = sssp_cache.find(q.src);
      if (it == sssp_cache.end()) {
        auto machine = test::test_machine(1);
        it = sssp_cache
                 .emplace(q.src, prim::run_sssp(chaos_graph(), q.src, machine,
                                                test::config_for(1))
                                     .dist)
                 .first;
      }
      EXPECT_EQ(r.dist, it->second[q.dst]) << "query " << q.id;
    } else {
      auto it = bfs_cache.find(q.src);
      if (it == bfs_cache.end()) {
        auto machine = test::test_machine(1);
        it = bfs_cache
                 .emplace(q.src, prim::run_bfs(chaos_graph(), q.src, machine,
                                               test::config_for(1))
                                     .labels)
                 .first;
      }
      if (q.kind == serve::QueryKind::kBfsDepth) {
        EXPECT_EQ(r.depth, it->second[q.dst]) << "query " << q.id;
      }
      EXPECT_EQ(r.reachable, it->second[q.dst] != kInvalidVertex)
          << "query " << q.id;
    }
  }
}

TEST(ServeChaos, FaultFreeRunKeepsSupervisionInert) {
  const auto queries = serve::generate_queries(chaos_graph(), 80, 5, true);
  serve::QueryService service(chaos_graph(), chaos_options(2, 2));
  const auto results = service.run(queries);
  const auto s1 = service.stats();
  EXPECT_EQ(s1.answered, queries.size());
  EXPECT_EQ(s1.requeues, 0u);
  EXPECT_EQ(s1.lane_restarts, 0u);
  EXPECT_EQ(s1.lanes_quarantined, 0u);
  EXPECT_EQ(s1.faults_injected, 0u);
  expect_zero_lost(s1);
  expect_answers_identical(queries, results);
  for (const auto& r : results) EXPECT_EQ(r.attempts, 1);
  ASSERT_EQ(s1.lanes.size(), 2u);
  for (const auto& l : s1.lanes) {
    EXPECT_EQ(l.state, LaneState::kHealthy);
    EXPECT_EQ(l.restarts, 0u);
  }

  // Identical rerun: modeled sums are summed in batch-index order, so
  // they are bit-identical whatever the lane scheduling did.
  (void)service.run(queries);
  const auto& s2 = service.stats();
  EXPECT_EQ(s2.modeled_compute_s, s1.modeled_compute_s);
  EXPECT_EQ(s2.modeled_comm_s, s1.modeled_comm_s);
  EXPECT_EQ(s2.total_edges, s1.total_edges);
  EXPECT_EQ(s2.total_comm_bytes, s1.total_comm_bytes);
  EXPECT_EQ(s2.batches, s1.batches);
}

TEST(ServeChaos, ExpiredDeadlineResolvesTimedOutWithoutEnacting) {
  // An already-expired deadline must resolve kTimedOut pre-dispatch
  // (attempts == 0) while undeadlined neighbors answer normally — and
  // run() must not throw.
  std::vector<serve::Query> queries =
      serve::generate_queries(chaos_graph(), 20, 6, true);
  queries[3].deadline_s = 1e-12;   // expired by the time a lane looks
  queries[11].deadline_s = 1e-12;
  serve::QueryService service(chaos_graph(), chaos_options(2, 1));
  const auto results = service.run(queries);
  const auto& s = service.stats();
  expect_zero_lost(s);
  EXPECT_EQ(results[3].status, Status::kTimedOut);
  EXPECT_EQ(results[3].attempts, 0);
  EXPECT_EQ(results[11].status, Status::kTimedOut);
  EXPECT_EQ(s.timed_out, 2u);
  EXPECT_EQ(s.answered, queries.size() - 2);
  expect_answers_identical(queries, results);
  // Generous deadlines change nothing: the batch budget arms but never
  // fires, and every query answers.
  std::vector<serve::Query> relaxed =
      serve::generate_queries(chaos_graph(), 20, 6, true);
  for (auto& q : relaxed) q.deadline_s = 3600;
  const auto relaxed_results = service.run(relaxed);
  EXPECT_EQ(service.stats().answered, relaxed.size());
  expect_answers_identical(relaxed, relaxed_results);
}

TEST(ServeChaos, PermanentDeviceLossRestartsLaneAndAnswersEverything) {
  const auto queries = serve::generate_queries(chaos_graph(), 120, 7, true);
  // Single lane so the faulted lane deterministically owns every
  // batch: device 1 dies for good a few kernel events in, the lane
  // restarts on replacement hardware (loss acknowledged), and the
  // requeued batch retries on the SAME restarted lane.
  auto opts = chaos_options(2, 1);
  opts.fault_plan = "kernel_fault@1#3";
  opts.max_batch_retries = 3;
  opts.max_lane_restarts = 2;
  serve::QueryService service(chaos_graph(), opts);
  const auto results = service.run(queries);
  const auto& s = service.stats();
  expect_zero_lost(s);
  EXPECT_EQ(s.answered, queries.size()) << "restart + requeue must recover "
                                           "every query";
  EXPECT_GE(s.lane_restarts, 1u);
  EXPECT_GE(s.requeues, 1u);
  EXPECT_GE(s.faults_injected, 1u);
  EXPECT_EQ(s.lanes_quarantined, 0u);
  expect_answers_identical(queries, results);
}

TEST(ServeChaos, RestartBudgetExhaustionQuarantinesButServiceSurvives) {
  const auto queries = serve::generate_queries(chaos_graph(), 60, 8, true);
  auto opts = chaos_options(2, 2);
  // Lane 0's device 0 faults permanently at event 0 and the restart
  // budget is zero: the first failure quarantines lane 0 outright.
  // Lane 1 must carry the whole workload. A narrow batch width keeps
  // enough batches in flight that lane 0 is certain to pull one.
  opts.fault_plan = "kernel_fault@0#0";
  opts.batch_width = 4;
  opts.max_lane_restarts = 0;
  opts.max_batch_retries = 3;
  serve::QueryService service(chaos_graph(), opts);
  const auto results = service.run(queries);
  const auto& s = service.stats();
  expect_zero_lost(s);
  EXPECT_EQ(s.answered, queries.size());
  EXPECT_EQ(s.lanes_quarantined, 1u);
  EXPECT_EQ(s.lane_restarts, 0u);
  ASSERT_EQ(s.lanes.size(), 2u);
  EXPECT_EQ(s.lanes[0].state, LaneState::kQuarantined);
  EXPECT_EQ(s.lanes[1].state, LaneState::kHealthy);
  for (const auto& r : results) {
    if (r.status == Status::kOk) {
      EXPECT_EQ(r.lane, 1);
    }
  }
  expect_answers_identical(queries, results);
}

TEST(ServeChaos, AllLanesDownFailsQueriesInsteadOfHanging) {
  const auto queries = serve::generate_queries(chaos_graph(), 40, 9, true);
  auto opts = chaos_options(2, 1);
  opts.fault_plan = "kernel_fault@0#0";  // single lane, instantly fatal
  opts.max_lane_restarts = 0;
  opts.max_batch_retries = 0;
  serve::QueryService service(chaos_graph(), opts);
  const auto results = service.run(queries);  // must return, not throw/hang
  const auto& s = service.stats();
  expect_zero_lost(s);
  EXPECT_EQ(s.answered, 0u);
  EXPECT_EQ(s.failed, queries.size());
  EXPECT_EQ(s.lanes_quarantined, 1u);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, Status::kUnavailable);
  }
}

TEST(ServeChaos, OpenLoopOverloadShedsInsteadOfQueueing) {
  const auto queries = serve::generate_queries(chaos_graph(), 48, 10, true);
  auto opts = chaos_options(2, 2);
  opts.admission_capacity = 3;
  serve::QueryService service(chaos_graph(), opts);
  // The whole burst arrives in ~50 microseconds — far beyond capacity.
  const auto arrivals =
      serve::generate_poisson_arrivals(queries.size(), 1e6, 3);
  const auto results = service.run_open_loop(queries, arrivals);
  const auto& s = service.stats();
  expect_zero_lost(s);
  EXPECT_GE(s.shed, 1u) << "overload must shed at the admission bound";
  EXPECT_GE(s.answered, 1u) << "admitted queries must still answer";
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GT(s.offered_qps, s.qps) << "burst is offered above capacity";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].status == Status::kResourceExhausted) {
      EXPECT_EQ(results[i].attempts, 0) << "shed queries never enact";
    }
  }
  expect_answers_identical(queries, results);
}

TEST(ServeChaos, PoissonArrivalsAreDeterministicAndAscending) {
  const auto a = serve::generate_poisson_arrivals(256, 1000.0, 42);
  const auto b = serve::generate_poisson_arrivals(256, 1000.0, 42);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 256u);
  EXPECT_GT(a.front(), 0.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // Mean gap ~ 1/rate: loose sanity band, deterministic given the seed.
  const double mean_gap = a.back() / 256.0;
  EXPECT_GT(mean_gap, 0.2e-3);
  EXPECT_LT(mean_gap, 5e-3);
  EXPECT_NE(a, serve::generate_poisson_arrivals(256, 1000.0, 43));
  EXPECT_THROW((void)serve::generate_poisson_arrivals(4, 0.0, 1), Error);
}

TEST(ServeChaos, OpenLoopRejectsNonAscendingArrivals) {
  const auto queries = serve::generate_queries(chaos_graph(), 3, 1, true);
  serve::QueryService service(chaos_graph(), chaos_options(2, 1));
  const std::vector<double> descending = {0.002, 0.001, 0.003};
  EXPECT_THROW((void)service.run_open_loop(queries, descending), Error);
  const std::vector<double> short_list = {0.001};
  EXPECT_THROW((void)service.run_open_loop(queries, short_list), Error);
}

TEST(ServeChaos, StatsJsonCarriesResilienceCounters) {
  const auto queries = serve::generate_queries(chaos_graph(), 30, 12, true);
  auto opts = chaos_options(2, 1);  // single lane: the restart is certain
  opts.fault_plan = "kernel_fault@1#2";
  serve::QueryService service(chaos_graph(), opts);
  (void)service.run(queries);
  const std::string json = serve::serve_stats_to_json(service.stats());
  for (const char* key :
       {"\"answered\"", "\"shed\"", "\"failed\"", "\"requeues\"",
        "\"lane_restarts\"", "\"lanes\"", "\"state\"", "\"faults_injected\"",
        "\"offered_qps\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in "
                                                 << json;
  }
  EXPECT_NE(json.find("\"restarts\":1"), std::string::npos) << json;
}

}  // namespace
}  // namespace mgg