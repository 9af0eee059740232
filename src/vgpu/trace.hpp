// Per-event tracing of the modeled execution (§V observability).
//
// The cost model (vgpu/cost.hpp) reduces a run to per-iteration
// aggregates: W, H, and the max-over-GPUs stream timelines. That is
// enough to price a run but not to *attribute* it — §V's scalability
// analysis lives on knowing which kernel, transfer, or handshake wait
// sits on the critical path. The Tracer records one span per modeled
// event — every kernel (Device::add_kernel_cost), transfer
// (Device::add_comm_cost), combine, and handshake wait — on the same
// overlap-aware per-GPU compute/comm timelines the cost model advances,
// plus the work counters the event carried.
//
// Design constraints, in order:
//   1. Zero overhead when disabled: devices hold a null Tracer pointer
//      by default; the only cost on the hot path is one branch under a
//      mutex the caller already holds. No allocation, no locks.
//   2. Observation-only when enabled: record() never feeds back into
//      the cost model — results, W/H counters, and modeled times are
//      bit-identical with tracing on or off (pinned by
//      tests/trace_test.cpp's differential suite).
//   3. Lock-free recording: each recording thread appends to its own
//      pre-reserved buffer; the tracer's mutex is taken only to
//      register a thread's buffer (once per thread) and on the
//      analysis/export paths. A full buffer drops spans (counted, and
//      reported in the export) instead of allocating or blocking.
//
// Exports:
//   - chrome_trace_json(): Chrome/Perfetto `trace_events` JSON
//     (load in chrome://tracing or ui.perfetto.dev). pid = vGPU,
//     tid = compute/comm track, one "X" duration event per span with
//     the counters in args; per-superstep "barrier" spans ride on a
//     synthetic host pid.
//   - attribution(): per-superstep bottleneck report — critical-path
//     GPU, the compute / exposed-comm / sync split (sums to the
//     superstep's modeled time), and the top-k spans by time.
//     stats_io appends it to the run-stats JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "vgpu/cost.hpp"

namespace mgg::vgpu {

enum class TraceCategory : std::uint8_t {
  kKernel,    ///< modeled compute kernel (advance, filter, compute, ...)
  kCombine,   ///< ExpandIncoming combine kernel (communication compute C)
  kTransfer,  ///< inter-GPU push on the comm timeline
  kSync,      ///< per-superstep barrier overhead l(n) (synthesized)
  kWait,      ///< pipeline handshake wait (zero modeled width; wall time
              ///< observed in wall_s)
  kFault,     ///< injected fault event (zero modeled width; observation
              ///< of the FaultInjector's decision, never a cost)
};

const char* to_string(TraceCategory category);

/// One recorded event. Times are superstep-local seconds on the
/// owning GPU's modeled stream timeline (track 0 = compute stream,
/// track 1 = comm stream); the export shifts them by the cumulative
/// superstep offsets to place every span on one global timeline.
struct TraceSpan {
  const char* name = "kernel";  ///< static-lifetime label
  TraceCategory category = TraceCategory::kKernel;
  std::int16_t gpu = 0;    ///< owning vGPU (chrome pid)
  std::int16_t track = 0;  ///< 0 = compute stream, 1 = comm stream (tid)
  std::int32_t peer = -1;  ///< transfer destination / wait source, or -1
  std::uint64_t superstep = 0;  ///< global superstep index (tracer-stamped)
  /// Batch/query tag (tracer-stamped from set_batch): serve-mode runs
  /// stamp every enactment with its batch id so Perfetto can filter a
  /// shared trace per query batch. 0 = untagged (non-serve runs).
  std::uint64_t batch = 0;
  double start_s = 0;  ///< superstep-local modeled start
  double end_s = 0;    ///< superstep-local modeled end (>= start_s)
  /// Host wall time observed for kWait spans (diagnostic; modeled
  /// width of a wait is 0 — the model prices waits via the superstep
  /// critical path, not per event).
  double wall_s = 0;
  std::uint64_t edges = 0;
  std::uint64_t vertices = 0;
  std::uint64_t bytes = 0;
  std::uint64_t items = 0;
};

/// One closed superstep, as charged by the enactor: the per-GPU
/// harvested stream times plus the schedule's overhead/overlap terms.
/// The enactor computes the superstep's modeled charge from these
/// methods, so the trace and RunStats share one formula.
struct SuperstepTrace {
  std::uint64_t index = 0;      ///< position on the global trace timeline
  std::uint64_t iteration = 0;  ///< enactor iteration counter
  std::uint64_t batch = 0;      ///< batch/query tag (0 = untagged)
  bool pipeline = false;        ///< event-pipeline schedule?
  double overhead_s = 0;        ///< l(n) charged this superstep
  double hidden_s = 0;          ///< comm hidden under compute (pipeline)
  std::vector<double> gpu_compute_s;    ///< per-GPU kernel time
  std::vector<double> gpu_comm_s;       ///< per-GPU transfer busy time
  std::vector<double> gpu_comm_tail_s;  ///< per-GPU comm-timeline finish

  double max_compute_s() const;
  double max_comm_s() const;
  /// Superstep body: the schedule's charge before l(n) — serial
  /// max(compute) + max(comm) under BSP, the critical path of the
  /// overlapped stream timelines under the pipeline.
  double body_s() const;
  /// body_s() + overhead_s: this superstep's contribution to
  /// RunStats::modeled_total_s().
  double duration_s() const { return body_s() + overhead_s; }
  /// The GPU whose streams end the superstep.
  int critical_gpu() const;
};

/// Per-superstep bottleneck attribution. compute_s + exposed_comm_s +
/// sync_s == total_s == the superstep's modeled time, so summing
/// total_s over supersteps reproduces RunStats::modeled_total_s().
struct SuperstepAttribution {
  std::uint64_t index = 0;
  std::uint64_t iteration = 0;
  int critical_gpu = 0;
  double compute_s = 0;       ///< max-GPU kernel time
  double exposed_comm_s = 0;  ///< max-GPU comm minus the hidden portion
  double sync_s = 0;          ///< l(n)
  double total_s = 0;
  /// Top spans by modeled time this superstep, widest first.
  std::vector<TraceSpan> top;
};

class Tracer {
 public:
  /// `spans_per_thread` bounds each recording thread's buffer; once
  /// full, further spans are dropped (counted) rather than grown.
  explicit Tracer(std::size_t spans_per_thread = std::size_t{1} << 16);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // ----------------------------------------------------------------
  // Recording (hot path; any thread).
  // ----------------------------------------------------------------

  /// Append a span to the calling thread's buffer, stamping it with
  /// the current superstep and batch tag. The span's `name` must
  /// outlive the tracer (string literals).
  void record(TraceSpan span);

  /// Tag every span and superstep recorded from now on with `batch`
  /// (a serve-layer batch/query id; 0 clears the tag). Observation
  /// only — the tag never feeds back into the cost model. Call while
  /// no enactment is recording (between batches on this tracer).
  void set_batch(std::uint64_t batch) {
    batch_.store(batch, std::memory_order_release);
  }
  std::uint64_t batch() const {
    return batch_.load(std::memory_order_acquire);
  }

  /// Close the superstep the enactor charged as `step` (its per-GPU
  /// stream times and the schedule's overhead/overlap terms); the
  /// tracer stamps `index` and `batch`. Called by the enactor from its
  /// exclusive close-iteration step — every span of the closing
  /// superstep has been recorded by then (workers park at the barrier
  /// after their pushes returned).
  void close_superstep(SuperstepTrace step);

  // ----------------------------------------------------------------
  // Analysis / export. Call only when no thread is recording
  // (enact() returned).
  // ----------------------------------------------------------------

  /// All spans, merged across threads and sorted by (superstep, gpu,
  /// track, start).
  std::vector<TraceSpan> sorted_spans() const;

  const std::vector<SuperstepTrace>& supersteps() const {
    return supersteps_;
  }

  /// Global start offsets T_k of each superstep (size supersteps()+1;
  /// the last entry is the total modeled time). A span's global
  /// position is offsets[span.superstep] + span.start_s.
  std::vector<double> superstep_offsets_s() const;

  /// Spans lost to full thread buffers.
  std::uint64_t dropped_spans() const;

  /// Spans recorded so far (across all threads).
  std::size_t span_count() const;

  /// Per-superstep bottleneck report (top_k widest spans each).
  std::vector<SuperstepAttribution> attribution(std::size_t top_k = 3) const;

  /// Chrome `trace_events` JSON (object form, with metadata events
  /// naming each vGPU pid and stream track).
  std::string chrome_trace_json() const;

  /// Write chrome_trace_json() to `path` (throws kIoError on failure).
  void write_chrome_trace(const std::string& path) const;

  /// Forget all recorded spans and supersteps; thread buffers keep
  /// their capacity. Call only while quiesced.
  void clear();

 private:
  struct ThreadBuffer {
    std::vector<TraceSpan> spans;
    std::uint64_t dropped = 0;
  };

  /// The calling thread's buffer, registered on first use.
  ThreadBuffer& local_buffer();

  const std::uint64_t id_;        ///< process-unique, keys the TLS cache
  const std::size_t capacity_;    ///< spans per thread buffer
  std::atomic<std::uint64_t> superstep_{0};
  std::atomic<std::uint64_t> batch_{0};  ///< serve-mode batch tag
  mutable std::mutex mutex_;      ///< buffer registry + supersteps
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<SuperstepTrace> supersteps_;
};

}  // namespace mgg::vgpu
