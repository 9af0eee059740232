// Point-to-point superstep handshakes for the event-driven pipeline
// (Config::sync_mode == SyncMode::kEventPipeline).
//
// One slot per (sender, receiver) pair. The sender publishes its
// superstep into the slot once it has pushed everything it will send
// that receiver this superstep; a push has landed in the receiver's
// inbox by the time it returns, so the publish alone tells the
// receiver that exactly that sender's messages for this superstep are
// in its inbox. The receiver takes the slot for its current superstep,
// blocking until the sender has published it. The slot mutex orders
// the sender's deliveries before the receiver's drain.
//
// The publish/take rendezvous replaces the BSP barrier A: a receiver
// synchronizes with each sender individually, so it can combine an
// early sender's messages while slow peers are still computing. The
// superstep counter makes the pairing explicit and self-checking: a
// slot is never armed twice, because sender and receiver advance
// supersteps in lockstep through the remaining convergence barrier
// (the sender's superstep-k+1 publish happens after barrier B of
// superstep k, which the receiver only reached after taking the
// superstep-k slot).
//
// Bounded wait: before the convergence barrier a pipeline worker waits
// on another worker only in take(), so a take bounded by the table's
// deadline (Config::watchdog_deadline_s) is the whole stall guard. A
// take that outlives it throws Error(kTimedOut) naming the stalled
// link; the enactor turns that into its regular error stop.
//
// Error stop: if a worker dies before publishing, every blocked (and
// future) take must still return, or the surviving receivers deadlock
// where the barrier schedule would have drained them through the
// barriers. abort() flips a flag that makes take() return at once; the
// enactor calls it from its error-recording path.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "util/error.hpp"
#include "vgpu/fault.hpp"

namespace mgg::core {

class HandshakeTable {
 public:
  /// `deadline_s` bounds every take(); 0 waits forever.
  explicit HandshakeTable(int num_gpus, double deadline_s = 0)
      : n_(num_gpus),
        deadline_s_(deadline_s),
        slots_(std::make_unique<Slot[]>(
            static_cast<std::size_t>(num_gpus) * num_gpus)) {}

  /// Install (or clear, with nullptr) a fault injector: a
  /// kHandshakeDrop spec swallows the matching publish(), stalling the
  /// receiver's take() until its deadline (or another error) ends it.
  /// Set by the enactor before the run's workers start.
  void set_fault_injector(vgpu::FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// New run: disarm any leftover slots (an aborted run may leave
  /// published-but-untaken slots) and clear the abort flag.
  void reset() {
    aborted_.store(false, std::memory_order_release);
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
         ++i) {
      std::lock_guard<std::mutex> lock(slots_[i].mutex);
      slots_[i].armed = false;
      slots_[i].superstep = 0;
    }
  }

  /// Sender side: tell the receiver that superstep `superstep`'s
  /// (src -> dst) pushes have all landed. The previous superstep's
  /// slot must have been taken (the lockstep argument above);
  /// publishing over an untaken slot is a protocol bug — except after
  /// abort(), where takers returned early and stragglers may still
  /// publish into dead slots.
  void publish(int src, int dst, std::uint64_t superstep) {
    if (vgpu::FaultInjector* injector =
            fault_injector_.load(std::memory_order_acquire)) {
      if (injector->drop_handshake(src, dst)) {
        // Swallowed publish: the receiver stalls in take() until its
        // deadline expires (or another error path calls abort()).
        return;
      }
    }
    Slot& s = slot(src, dst);
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      if (aborted_.load(std::memory_order_acquire)) return;
      MGG_ASSERT(!s.armed,
                 "handshake published over an untaken slot (sender ran "
                 "two supersteps ahead of its receiver)");
      s.superstep = superstep;
      s.armed = true;
    }
    s.cv.notify_all();
  }

  /// Receiver side: block until the (src -> dst) slot for `superstep`
  /// is published, then consume it. Returns at once on an aborted run.
  /// Throws Error(kTimedOut) naming the link when the table has a
  /// deadline and the wait outlives it.
  void take(int src, int dst, std::uint64_t superstep) {
    Slot& s = slot(src, dst);
    std::unique_lock<std::mutex> lock(s.mutex);
    const auto ready = [&] {
      return (s.armed && s.superstep == superstep) ||
             aborted_.load(std::memory_order_acquire);
    };
    const std::chrono::duration<double> deadline(deadline_s_);
    if (deadline_s_ <= 0) {
      s.cv.wait(lock, ready);
    } else if (!s.cv.wait_for(lock, deadline, ready)) {
      throw Error(Status::kTimedOut,
                  "handshake gpu" + std::to_string(src) + " -> gpu" +
                      std::to_string(dst) + " of superstep " +
                      std::to_string(superstep) + " not published within " +
                      std::to_string(deadline_s_) +
                      " s (stalled handshake or straggler)");
    }
    if (s.armed && s.superstep == superstep) s.armed = false;
  }

  /// Wake every blocked take() — present and future. Called when the
  /// run stops with an error.
  void abort() {
    aborted_.store(true, std::memory_order_release);
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
         ++i) {
      // Acquire/release the slot mutex so a taker between its predicate
      // check and its sleep cannot miss the notification.
      { std::lock_guard<std::mutex> lock(slots_[i].mutex); }
      slots_[i].cv.notify_all();
    }
  }

  bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    std::mutex mutex;
    std::condition_variable cv;
    std::uint64_t superstep = 0;
    bool armed = false;
  };

  Slot& slot(int src, int dst) {
    return slots_[static_cast<std::size_t>(src) * n_ + dst];
  }

  int n_ = 0;
  const double deadline_s_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<bool> aborted_{false};
  std::atomic<vgpu::FaultInjector*> fault_injector_{nullptr};
};

}  // namespace mgg::core
