#include "vgpu/stream.hpp"

namespace mgg::vgpu {

Stream::Stream(std::string name)
    : name_(std::move(name)), worker_([this] { worker_loop(); }) {}

Stream::~Stream() {
  Event blocked;
  bool blocked_active = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Release the worker if it is (or is about to get) blocked in a
    // wait task on an event that will never fire — joining would
    // otherwise hang forever. Registered-but-not-yet-blocked waits see
    // cancel_waits_ and skip; already-blocked ones get cancelled below.
    cancel_waits_ = true;
    blocked = blocked_wait_;
    blocked_active = wait_active_;
  }
  if (blocked_active) blocked.cancel();
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void Stream::ring_grow() {
  const std::size_t capacity = ring_capacity_ == 0 ? 64 : ring_capacity_ * 2;
  auto grown = std::make_unique<Task[]>(capacity);
  for (std::size_t i = 0; i < ring_count_; ++i) {
    grown[i] = std::move(ring_[(ring_head_ + i) % ring_capacity_]);
  }
  ring_ = std::move(grown);
  ring_capacity_ = capacity;
  ring_head_ = 0;
}

void Stream::ring_push(Task task) {
  if (ring_count_ == ring_capacity_) ring_grow();
  ring_[(ring_head_ + ring_count_) % ring_capacity_] = std::move(task);
  ++ring_count_;
}

Task Stream::ring_pop() {
  Task task = std::move(ring_[ring_head_]);
  ring_head_ = (ring_head_ + 1) % ring_capacity_;
  --ring_count_;
  return task;
}

void Stream::submit(Task task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_push(std::move(task));
    ++in_flight_;
  }
  cv_.notify_all();
}

Event Stream::record_event() {
  Event event;
  submit([event]() mutable { event.fire(); });
  return event;
}

void Stream::wait_event(Event event) {
  submit([this, event] { blocking_wait(event); });
}

void Stream::blocking_wait(Event event) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cancel_waits_) return;  // tearing down; the wait is moot
    blocked_wait_ = event;
    wait_active_ = true;
  }
  event.wait_or_cancelled();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    wait_active_ = false;
    // blocked_wait_ keeps the retired event until the next wait task
    // overwrites it: constructing a fresh Event here would allocate a
    // new shared state on every wait, breaking the comm path's
    // zero-steady-state-allocation property (pinned by
    // CommBus.SteadyStateAllocatesNothing).
  }
}

void Stream::synchronize() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return in_flight_ == 0; });
  if (pending_error_) {
    const std::exception_ptr error = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void Stream::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || ring_count_ != 0; });
      if (ring_count_ == 0) return;  // stopping with a drained queue
      task = ring_pop();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!pending_error_) pending_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Release the closure (and any Message it owns) before the
      // in-flight count drops: synchronize() returning must imply all
      // task side effects, including destructors, are done.
      task = Task{};
      --in_flight_;
    }
    cv_.notify_all();
  }
}

}  // namespace mgg::vgpu
