#include "util/thread_pool.hpp"

#include <algorithm>

namespace mgg::util {

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::resolve_width(int host_threads) {
  if (host_threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 8u));
  }
  return std::min(host_threads, kMaxWorkers);
}

ThreadPool::~ThreadPool() {
  std::unique_lock<std::mutex> lock(mutex_);
  stop_helpers_locked();
}

void ThreadPool::stop_helpers_locked() {
  // Caller holds mutex_. Helpers park on cv_wake_ between jobs, so a
  // stop flag plus notify wakes them all; unlock to let them exit.
  stop_ = true;
  cv_wake_.notify_all();
  std::vector<std::thread> helpers = std::move(helpers_);
  helpers_.clear();
  mutex_.unlock();
  for (std::thread& t : helpers) t.join();
  mutex_.lock();
  stop_ = false;
  active_helpers_ = 0;
}

void ThreadPool::set_workers(int n) {
  n = std::clamp(n, 1, kMaxWorkers);
  // Serialize against running jobs so no helper is mid-claim while the
  // thread set changes.
  std::lock_guard<std::mutex> job(job_mutex_);
  std::unique_lock<std::mutex> lock(mutex_);
  if (n == width_ && static_cast<int>(helpers_.size()) == n - 1) return;
  stop_helpers_locked();
  width_ = n;
  helpers_.reserve(static_cast<std::size_t>(n - 1));
  for (int i = 0; i < n - 1; ++i) {
    helpers_.emplace_back([this] { worker_main(); });
  }
}

void ThreadPool::run_serial(std::size_t n_chunks, InvokeFn invoke,
                            void* ctx) {
  // Inline path: ascending order, so the first captured exception is
  // the lowest-index one — identical rethrow choice to the pool path.
  std::exception_ptr first;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    try {
      invoke(ctx, c);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void ThreadPool::claim_loop() {
  // Racy chunk claiming: assignment is nondeterministic, effects are
  // not (bodies write only chunk-indexed state; the caller combines in
  // chunk order afterwards).
  for (;;) {
    const std::size_t c = next_chunk_.fetch_add(1);
    if (c >= job_chunks_) return;
    try {
      job_invoke_(job_ctx_, c);
    } catch (...) {
      errors_[c] = std::current_exception();
    }
    if (done_chunks_.fetch_add(1) + 1 == job_chunks_) {
      std::lock_guard<std::mutex> lock(mutex_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::worker_main() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    ++active_helpers_;
    lock.unlock();
    claim_loop();
    lock.lock();
    if (--active_helpers_ == 0) cv_idle_.notify_all();
  }
}

void ThreadPool::run_chunks_impl(std::size_t n_chunks, InvokeFn invoke,
                                 void* ctx) {
  if (n_chunks > kMaxChunks) n_chunks = kMaxChunks;  // plan caps anyway
  std::unique_lock<std::mutex> job(job_mutex_, std::try_to_lock);
  if (!job.owns_lock()) {
    // Nested or contended: run inline. Deterministic either way.
    run_serial(n_chunks, invoke, ctx);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (width_ <= 1 || n_chunks <= 1) {
      lock.unlock();
      job.unlock();
      run_serial(n_chunks, invoke, ctx);
      return;
    }
    // A helper from the previous job may still be unwinding out of its
    // claim loop; wait until the slot is quiet before mutating it.
    cv_idle_.wait(lock, [&] { return active_helpers_ == 0; });
    for (std::size_t c = 0; c < n_chunks; ++c) errors_[c] = nullptr;
    job_invoke_ = invoke;
    job_ctx_ = ctx;
    job_chunks_ = n_chunks;
    next_chunk_.store(0);
    done_chunks_.store(0);
    ++generation_;
    cv_wake_.notify_all();
  }
  claim_loop();  // the caller is worker 0
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return done_chunks_.load() == job_chunks_; });
  }
  for (std::size_t c = 0; c < n_chunks; ++c) {
    if (errors_[c]) std::rethrow_exception(errors_[c]);
  }
}

}  // namespace mgg::util
