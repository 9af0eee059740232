#include "serve/supervisor.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mgg::serve {

const char* to_string(LaneState state) {
  switch (state) {
    case LaneState::kHealthy: return "healthy";
    case LaneState::kRestarting: return "restarting";
    case LaneState::kQuarantined: return "quarantined";
  }
  return "?";
}

void BatchQueue::push(BatchTicket ticket) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tickets_.push_back(ticket);
  }
  cv_.notify_all();
}

std::optional<BatchTicket> BatchQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return !tickets_.empty() || closed_; });
  if (tickets_.empty()) return std::nullopt;
  const auto best = std::min_element(
      tickets_.begin(), tickets_.end(),
      [](const BatchTicket& a, const BatchTicket& b) {
        return a.batch_index < b.batch_index;
      });
  const BatchTicket ticket = *best;
  tickets_.erase(best);
  return ticket;
}

std::vector<BatchTicket> BatchQueue::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BatchTicket> out;
  out.swap(tickets_);
  return out;
}

void BatchQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t BatchQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tickets_.size();
}

Supervisor::Supervisor(int num_lanes, int max_lane_restarts,
                       int max_attempts)
    : max_lane_restarts_(max_lane_restarts),
      max_attempts_(max_attempts),
      stats_(static_cast<std::size_t>(num_lanes)) {
  MGG_REQUIRE(num_lanes > 0, "Supervisor needs at least one lane");
  MGG_REQUIRE(max_lane_restarts >= 0, "max_lane_restarts must be >= 0");
  for (int i = 0; i < num_lanes; ++i) stats_[static_cast<std::size_t>(i)].lane = i;
}

Supervisor::Decision Supervisor::on_failure(int lane, Status status,
                                            int attempt) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto li = static_cast<std::size_t>(lane);
  Decision d;
  d.query_status = status == Status::kTimedOut ? Status::kTimedOut
                                               : Status::kUnavailable;

  // Lane-fatal statuses: the machine behind the lane can no longer be
  // trusted (device lost, transfer retries exhausted, regrow budget
  // spent). A deadline abort (kTimedOut) is the service's own doing
  // and leaves the lane healthy.
  const bool lane_fatal =
      status == Status::kUnavailable || status == Status::kOutOfMemory;
  if (lane_fatal) {
    if (stats_[li].restarts < static_cast<std::uint64_t>(max_lane_restarts_)) {
      d.restart_lane = true;
      stats_[li].restarts++;
      stats_[li].state = LaneState::kRestarting;
    } else {
      stats_[li].state = LaneState::kQuarantined;
    }
  }

  if (attempt + 1 < max_attempts_ && live_lanes_locked() > 0) {
    d.retry_batch = true;
    stats_[li].requeues++;
  }
  return d;
}

void Supervisor::on_restarted(int lane) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto li = static_cast<std::size_t>(lane);
  MGG_ASSERT(stats_[li].state == LaneState::kRestarting,
             "on_restarted on a lane that was not restarting");
  stats_[li].state = LaneState::kHealthy;
}

void Supervisor::quarantine(int lane) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_[static_cast<std::size_t>(lane)].state = LaneState::kQuarantined;
}

LaneState Supervisor::state(int lane) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_[static_cast<std::size_t>(lane)].state;
}

int Supervisor::live_lanes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_lanes_locked();
}

int Supervisor::live_lanes_locked() const {
  return static_cast<int>(std::count_if(
      stats_.begin(), stats_.end(), [](const LaneStats& l) {
        return l.state != LaneState::kQuarantined;
      }));
}

}  // namespace mgg::serve
