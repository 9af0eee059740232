// A virtual GPU device.
//
// Bundles the pieces a primitive interacts with: a memory manager
// (capacity + accounting) and per-iteration cost counters fed by the
// operators and the communication layer. A device runs no thread of
// its own: kernels and pushes execute on the caller's thread, and the
// paper's compute/comm stream overlap (§III-B) is modeled by placing
// each charge on a compute or a comm timeline (add_kernel_cost /
// add_comm_cost).
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "util/error.hpp"
#include "vgpu/cost.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/gpu_model.hpp"
#include "vgpu/memory.hpp"
#include "vgpu/trace.hpp"

namespace mgg::vgpu {

class Device {
 public:
  Device(int id, GpuModel model)
      : id_(id),
        model_(std::move(model)),
        memory_(model_.memory_bytes) {}

  int id() const noexcept { return id_; }
  const GpuModel& model() const noexcept { return model_; }
  MemoryManager& memory() noexcept { return memory_; }
  const MemoryManager& memory() const noexcept { return memory_; }

  /// Record the cost of one kernel: `edges` advance work items,
  /// `vertices` filter/compute items, `launches` kernel launches.
  /// `imbalance` >= 1 is the max/mean worker-load ratio from the
  /// advance load-balancing policy (core/load_balance.hpp): a skewed
  /// mapping's kernel finishes when its most loaded worker does, so
  /// modeled edge time stretches by that factor while the raw work
  /// counters stay truthful. Thread safe.
  /// `trace_name`/`trace_cat` label the span when a Tracer is attached
  /// (static-lifetime string; no effect on the accounting).
  void add_kernel_cost(std::uint64_t edges, std::uint64_t vertices,
                       std::uint64_t launches = 1, double imbalance = 1.0,
                       const char* trace_name = nullptr,
                       TraceCategory trace_cat = TraceCategory::kKernel) {
    // The scale knobs are retuned from control threads (Table V /
    // workload-scale) while other threads record costs, so they are
    // atomics; the cost arithmetic stays outside the counter mutex to
    // keep this hot path short.
    double fault_slowdown = 1.0;
    if (FaultInjector* injector =
            fault_injector_.load(std::memory_order_acquire)) {
      const KernelDecision decision = injector->on_kernel(id_);
      if (decision.fail) {
        // A faulted kernel is a lost device, not an OOM: the operator's
        // side effects already ran, so this must never trigger the
        // grow-and-retry replay path.
        throw Error(Status::kUnavailable,
                    "injected kernel fault on gpu" + std::to_string(id_));
      }
      fault_slowdown = decision.slowdown;
    }
    const double workload_scale =
        workload_scale_.load(std::memory_order_relaxed);
    // Effective (full-size-modeled) edge work, plus the occupancy-ramp
    // term — see GpuModel::ramp_items.
    const double we = static_cast<double>(edges) * workload_scale *
                      id_scale_.load(std::memory_order_relaxed) *
                      std::max(imbalance, 1.0);
    const double ramp = we > 0 ? std::sqrt(we * model_.ramp_items) : 0.0;
    const double seconds =
        ((we + ramp) / model_.edge_rate +
         static_cast<double>(vertices) / model_.vertex_rate *
             workload_scale +
         static_cast<double>(launches) * model_.launch_overhead_s) *
        fault_slowdown;
    std::lock_guard<std::mutex> lock(mutex_);
    if (tracer_ != nullptr) {
      // Observation only: the span reads the timeline position the
      // counters already define; nothing feeds back into the model.
      TraceSpan span;
      span.name = trace_name != nullptr ? trace_name : "kernel";
      span.category = trace_cat;
      span.gpu = static_cast<std::int16_t>(id_);
      span.track = 0;
      span.start_s = counters_.compute_s;
      span.end_s = counters_.compute_s + seconds;
      span.edges = edges;
      span.vertices = vertices;
      tracer_->record(span);
    }
    counters_.compute_s += seconds;
    counters_.edges += edges;
    counters_.vertices += vertices;
    counters_.launches += launches;
  }

  /// Record a transfer this GPU pushed: modeled seconds, raw bytes,
  /// communicated items (vertices, for H accounting). `ready_s` is the
  /// compute-timeline position when the transfer was submitted (see
  /// modeled_compute_time()) — its data dependency. The comm timeline
  /// places the transfer at max(previous transfer's end, ready_s), so
  /// counters_.comm_tail_s models the comm stream running concurrently
  /// with compute rather than after it. Callers that model a serial
  /// schedule can leave ready_s at 0 (tail then equals the busy sum).
  void add_comm_cost(double seconds, std::uint64_t bytes,
                     std::uint64_t items, double ready_s = 0.0,
                     const char* trace_name = nullptr, int peer = -1) {
    const double scaled =
        seconds * id_scale_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    const double start = std::max(counters_.comm_tail_s, ready_s);
    if (tracer_ != nullptr) {
      TraceSpan span;
      span.name = trace_name != nullptr ? trace_name : "transfer";
      span.category = TraceCategory::kTransfer;
      span.gpu = static_cast<std::int16_t>(id_);
      span.track = 1;
      span.peer = peer;
      span.start_s = start;
      span.end_s = start + scaled;
      span.bytes = bytes;
      span.items = items;
      tracer_->record(span);
    }
    counters_.comm_tail_s = start + scaled;
    counters_.comm_s += scaled;
    counters_.bytes_out += bytes;
    counters_.items_out += items;
  }

  /// Modeled compute-timeline position within the current iteration:
  /// the earliest point a transfer submitted "now" could start.
  /// Thread safe.
  double modeled_compute_time() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.compute_s;
  }

  /// Snapshot and clear the per-iteration counters (called by the
  /// enactor when it closes a BSP superstep).
  IterationCounters harvest_iteration() {
    std::lock_guard<std::mutex> lock(mutex_);
    IterationCounters out = counters_;
    counters_.clear();
    return out;
  }

  /// Table V knob: scale traffic-bound costs for wider IDs. Atomic:
  /// other threads read it while recording costs.
  void set_id_scale(double scale) {
    id_scale_.store(scale, std::memory_order_relaxed);
  }

  /// Heterogeneity knob (tests / what-if modeling): override this
  /// device's barrier-cost multiplier. The enactor charges l(n) scaled
  /// by the *max* sync_scale across participating devices — a barrier
  /// completes when its slowest participant arrives.
  void set_sync_scale(double scale) { model_.sync_scale = scale; }

  /// Workload-scale knob (see Machine::set_workload_scale): per-item
  /// compute time is multiplied so a 1/k-scale analog graph models the
  /// full-size dataset's W while launch/sync overheads stay fixed.
  /// Atomic like set_id_scale.
  void set_workload_scale(double scale) {
    workload_scale_.store(scale, std::memory_order_relaxed);
  }
  double workload_scale() const noexcept {
    return workload_scale_.load(std::memory_order_relaxed);
  }

  /// Attach (or detach, with nullptr) a fault injector consulted on
  /// every kernel cost (straggler slowdowns, kernel faults) and every
  /// allocation on this device's MemoryManager. Attach while idle.
  void set_fault_injector(FaultInjector* injector) {
    memory_.set_fault_injector(injector, id_);
    fault_injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const noexcept {
    return fault_injector_.load(std::memory_order_acquire);
  }

  /// Attach (or detach, with nullptr) a tracer. Every kernel and
  /// transfer cost recorded while attached also records a TraceSpan.
  /// Attach while the device is idle (no enactment running).
  void set_tracer(Tracer* tracer) {
    std::lock_guard<std::mutex> lock(mutex_);
    tracer_ = tracer;
  }
  Tracer* tracer() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return tracer_;
  }

 private:
  int id_;
  GpuModel model_;
  MemoryManager memory_;
  mutable std::mutex mutex_;
  IterationCounters counters_;
  std::atomic<double> id_scale_{1.0};
  std::atomic<double> workload_scale_{1.0};
  std::atomic<FaultInjector*> fault_injector_{nullptr};
  Tracer* tracer_ = nullptr;  ///< observation-only; null = disabled
};

}  // namespace mgg::vgpu
