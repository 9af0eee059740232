// Serve-layer resilience: lane supervision, retry budgets, and the
// batch queue (docs/architecture.md §15).
//
// The QueryService's lanes enact batches over injectable-fault vGPU
// machines; this module supplies the policy layer that turns an
// enactment failure into a *degraded* service instead of a dead one:
//
//   - Supervisor: the per-lane state machine (healthy -> restarting ->
//     healthy ... -> quarantined) plus the failure classifier that
//     decides, from an enactment's error status, whether the batch
//     retries (immediately, within a bounded attempt budget) and
//     whether the lane restarts with a fresh Machine or is quarantined
//     for the rest of the run;
//   - BatchQueue: the MPMC work queue the lanes pull from, lowest
//     batch index first, with a close() that releases every blocked
//     lane.
//
// Everything here is policy and bookkeeping — no modeled cost is ever
// charged, so a fault-free run's ServeStats are bit-identical with or
// without supervision in the loop.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "util/error.hpp"

namespace mgg::serve {

/// Lane lifecycle (docs/architecture.md §15). kHealthy lanes pull
/// batches; a lane-fatal failure moves the lane through kRestarting
/// (fresh Machine/Problem/Enactor over the shared partition) back to
/// kHealthy, until its restart budget is spent — then kQuarantined,
/// permanently for the run, with its in-flight batch requeued to the
/// surviving lanes.
enum class LaneState : std::uint8_t { kHealthy, kRestarting, kQuarantined };

const char* to_string(LaneState state);

/// Per-lane supervision counters, surfaced in ServeStats and the
/// serve_stats_to_json export.
struct LaneStats {
  int lane = 0;
  LaneState state = LaneState::kHealthy;
  std::uint64_t batches = 0;         ///< enactments completed (answers)
  std::uint64_t restarts = 0;        ///< fresh-Machine rebuilds
  std::uint64_t requeues = 0;        ///< failed batches handed back
  std::uint64_t failed_queries = 0;  ///< queries resolved terminally here
  std::uint64_t faults_injected = 0; ///< injector events on this lane
};

/// One queued unit of work: an index into the service's batch list
/// plus its retry state. Tickets are value types — the queue never
/// owns batch payloads.
struct BatchTicket {
  std::size_t batch_index = 0;
  int attempt = 0;  ///< 0-based enactment attempt this dispatch is
};

/// MPMC work queue feeding the lanes. pop() blocks until a ticket is
/// queued or the queue closes, then hands out the ticket with the
/// smallest batch_index. close() wakes and drains every waiter; a
/// closed queue's pop() returns nullopt once no tickets remain.
class BatchQueue {
 public:
  void push(BatchTicket ticket);

  /// The queued ticket with the smallest batch_index, or nullopt once
  /// the queue is closed and empty.
  std::optional<BatchTicket> pop();

  /// Snapshot-and-clear every queued ticket — the all-lanes-quarantined
  /// drain, where the caller fails the tickets' unresolved queries
  /// instead of running them.
  std::vector<BatchTicket> drain();

  void close();
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<BatchTicket> tickets_;
  bool closed_ = false;
};

/// The lane state machine + failure classifier. Thread-safe: lanes
/// report failures and restarts concurrently with the dispatcher
/// reading live-lane counts.
class Supervisor {
 public:
  /// `max_lane_restarts`: fresh-Machine rebuilds each lane may spend
  /// before a further lane-fatal failure quarantines it.
  /// `max_attempts`: enactments a batch may spend in total (attempts
  /// are 0-based, so attempt max_attempts - 1 is the last).
  Supervisor(int num_lanes, int max_lane_restarts, int max_attempts);

  /// What to do about one failed enactment attempt.
  struct Decision {
    bool retry_batch = false;      ///< requeue with attempt + 1
    bool restart_lane = false;     ///< rebuild this lane's Machine
    bool quarantine_lane = false;  ///< restart budget spent
    /// Terminal status for the batch's unresolved queries when
    /// retry_batch is false.
    Status query_status = Status::kUnavailable;
  };

  /// Classify attempt `attempt` (0-based) of a batch failing on
  /// `lane` with error status `status`. kTimedOut (a deadline abort)
  /// never touches the lane; kUnavailable / kOutOfMemory are
  /// lane-fatal (device loss, retry exhaustion, capacity collapse) and
  /// charge the lane's restart budget. The batch retries while its own
  /// attempt budget lasts AND at least one lane will be alive to run
  /// it. Updates the lane's state and counters atomically with the
  /// decision.
  Decision on_failure(int lane, Status status, int attempt);

  /// The lane finished rebuilding and is pulling work again.
  void on_restarted(int lane);

  /// Unconditionally quarantine `lane` — the escape hatch for failures
  /// outside an enactment (e.g. the fresh Machine's rebuild itself
  /// faulted), where there is no attempt to classify.
  void quarantine(int lane);

  LaneState state(int lane) const;
  /// Lanes not quarantined (healthy or mid-restart) — the lanes that
  /// can still answer.
  int live_lanes() const;

  /// Mutable per-lane counters (the owning lane thread is the only
  /// writer of lane `i`'s entry during a run; reads for reporting
  /// happen after the lanes joined).
  LaneStats& stats(int lane) { return stats_[static_cast<std::size_t>(lane)]; }
  const std::vector<LaneStats>& all_stats() const { return stats_; }

 private:
  mutable std::mutex mutex_;
  int max_lane_restarts_;
  int max_attempts_;
  std::vector<LaneState> states_;
  std::vector<LaneStats> stats_;
};

}  // namespace mgg::serve
