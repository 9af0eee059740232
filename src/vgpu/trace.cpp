#include "vgpu/trace.hpp"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <utility>

#include "util/error.hpp"
#include "util/json.hpp"

namespace mgg::vgpu {

namespace {

/// Process-unique tracer IDs. The thread-local cache below maps an ID
/// (never an address, which could be reused) to the thread's buffer,
/// so a stale cache entry for a destroyed tracer is simply never
/// matched again.
std::atomic<std::uint64_t> g_next_tracer_id{1};

thread_local std::vector<std::pair<std::uint64_t, void*>> tl_buffer_cache;

}  // namespace

const char* to_string(TraceCategory category) {
  switch (category) {
    case TraceCategory::kKernel: return "kernel";
    case TraceCategory::kCombine: return "combine";
    case TraceCategory::kTransfer: return "transfer";
    case TraceCategory::kSync: return "sync";
    case TraceCategory::kWait: return "wait";
    case TraceCategory::kFault: return "fault";
  }
  return "unknown";
}

double SuperstepTrace::max_compute_s() const {
  double m = 0;
  for (const double c : gpu_compute_s) m = std::max(m, c);
  return m;
}

double SuperstepTrace::max_comm_s() const {
  double m = 0;
  for (const double c : gpu_comm_s) m = std::max(m, c);
  return m;
}

double SuperstepTrace::body_s() const {
  if (!pipeline) return max_compute_s() + max_comm_s();
  // Pipeline charge: each GPU's superstep ends when both its stream
  // timelines do; the body is the slowest GPU's critical path (never
  // less than max_compute).
  double critical = 0;
  for (std::size_t g = 0; g < gpu_compute_s.size(); ++g) {
    critical = std::max(critical,
                        std::max(gpu_compute_s[g], gpu_comm_tail_s[g]));
  }
  return std::max(critical, max_compute_s());
}

int SuperstepTrace::critical_gpu() const {
  int best = 0;
  double best_time = -1;
  for (std::size_t g = 0; g < gpu_compute_s.size(); ++g) {
    const double t =
        pipeline ? std::max(gpu_compute_s[g], gpu_comm_tail_s[g])
                 : gpu_compute_s[g] + gpu_comm_s[g];
    if (t > best_time) {
      best_time = t;
      best = static_cast<int>(g);
    }
  }
  return best;
}

Tracer::Tracer(std::size_t spans_per_thread)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(std::max<std::size_t>(spans_per_thread, 64)) {}

Tracer::~Tracer() = default;

Tracer::ThreadBuffer& Tracer::local_buffer() {
  for (const auto& [id, ptr] : tl_buffer_cache) {
    if (id == id_) return *static_cast<ThreadBuffer*>(ptr);
  }
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->spans.reserve(capacity_);
  ThreadBuffer* raw = buffer.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(buffer));
  }
  tl_buffer_cache.emplace_back(id_, raw);
  return *raw;
}

void Tracer::record(TraceSpan span) {
  span.superstep = superstep_.load(std::memory_order_relaxed);
  span.batch = batch_.load(std::memory_order_relaxed);
  ThreadBuffer& buffer = local_buffer();
  if (buffer.spans.size() < capacity_) {
    buffer.spans.push_back(span);
  } else {
    ++buffer.dropped;
  }
}

void Tracer::close_superstep(SuperstepTrace step) {
  step.batch = batch_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    step.index = supersteps_.size();
    supersteps_.push_back(std::move(step));
  }
  // Spans recorded from here on belong to the next superstep. Safe
  // ordering: close_superstep runs exclusively (barrier completion)
  // after every recording thread has quiesced for this superstep.
  superstep_.fetch_add(1, std::memory_order_release);
}

std::vector<TraceSpan> Tracer::sorted_spans() const {
  std::vector<TraceSpan> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const auto& b : buffers_) total += b->spans.size();
    all.reserve(total);
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.superstep != b.superstep) return a.superstep < b.superstep;
              if (a.gpu != b.gpu) return a.gpu < b.gpu;
              if (a.track != b.track) return a.track < b.track;
              if (a.start_s != b.start_s) return a.start_s < b.start_s;
              return a.end_s < b.end_s;
            });
  return all;
}

std::vector<double> Tracer::superstep_offsets_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> offsets;
  offsets.reserve(supersteps_.size() + 1);
  offsets.push_back(0);
  for (const SuperstepTrace& step : supersteps_) {
    offsets.push_back(offsets.back() + step.duration_s());
  }
  return offsets;
}

std::uint64_t Tracer::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t dropped = 0;
  for (const auto& b : buffers_) dropped += b->dropped;
  return dropped;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->spans.size();
  return total;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& b : buffers_) {
    b->spans.clear();
    b->dropped = 0;
  }
  supersteps_.clear();
  superstep_.store(0, std::memory_order_release);
  batch_.store(0, std::memory_order_release);
}

std::vector<SuperstepAttribution> Tracer::attribution(
    std::size_t top_k) const {
  const std::vector<TraceSpan> spans = sorted_spans();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SuperstepAttribution> report;
  report.reserve(supersteps_.size());
  std::size_t cursor = 0;  // spans are sorted by superstep
  for (const SuperstepTrace& step : supersteps_) {
    SuperstepAttribution a;
    a.index = step.index;
    a.iteration = step.iteration;
    a.critical_gpu = step.critical_gpu();
    a.compute_s = step.max_compute_s();
    a.exposed_comm_s = step.max_comm_s() - step.hidden_s;
    a.sync_s = step.overhead_s;
    a.total_s = a.compute_s + a.exposed_comm_s + a.sync_s;
    while (cursor < spans.size() && spans[cursor].superstep < step.index) {
      ++cursor;
    }
    std::size_t end = cursor;
    while (end < spans.size() && spans[end].superstep == step.index) ++end;
    // Top-k widest spans of this superstep. Spans do not nest on a
    // modeled stream timeline, so a span's exclusive time is its width.
    a.top.assign(spans.begin() + static_cast<std::ptrdiff_t>(cursor),
                 spans.begin() + static_cast<std::ptrdiff_t>(end));
    std::stable_sort(a.top.begin(), a.top.end(),
                     [](const TraceSpan& x, const TraceSpan& y) {
                       return (x.end_s - x.start_s) > (y.end_s - y.start_s);
                     });
    if (a.top.size() > top_k) a.top.resize(top_k);
    cursor = end;
    report.push_back(std::move(a));
  }
  return report;
}

std::string Tracer::chrome_trace_json() const {
  const std::vector<TraceSpan> spans = sorted_spans();
  const std::vector<double> offsets = superstep_offsets_s();

  int num_gpus = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const SuperstepTrace& step : supersteps_) {
      num_gpus = std::max(num_gpus,
                          static_cast<int>(step.gpu_compute_s.size()));
    }
  }
  for (const TraceSpan& span : spans) {
    num_gpus = std::max(num_gpus, span.gpu + 1);
  }
  const int host_pid = num_gpus;  // synthetic pid for barrier spans

  util::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();

  // Metadata: name every pid (vGPU) and tid (stream track).
  for (int gpu = 0; gpu < num_gpus; ++gpu) {
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(static_cast<long long>(gpu));
    w.key("args").begin_object();
    w.key("name").value("vGPU " + std::to_string(gpu));
    w.end_object();
    w.end_object();
    for (int track = 0; track < 2; ++track) {
      w.begin_object();
      w.key("name").value("thread_name");
      w.key("ph").value("M");
      w.key("pid").value(static_cast<long long>(gpu));
      w.key("tid").value(static_cast<long long>(track));
      w.key("args").begin_object();
      w.key("name").value(track == 0 ? "compute" : "comm");
      w.end_object();
      w.end_object();
    }
  }
  w.begin_object();
  w.key("name").value("process_name");
  w.key("ph").value("M");
  w.key("pid").value(static_cast<long long>(host_pid));
  w.key("args").begin_object();
  w.key("name").value("host (sync)");
  w.end_object();
  w.end_object();

  const auto emit_span = [&w](const char* name, const char* category,
                              int pid, int tid, double ts_s, double dur_s,
                              const TraceSpan* detail,
                              std::uint64_t superstep, std::uint64_t batch) {
    w.begin_object();
    w.key("name").value(name);
    w.key("cat").value(category);
    w.key("ph").value("X");
    w.key("pid").value(static_cast<long long>(pid));
    w.key("tid").value(static_cast<long long>(tid));
    w.key("ts").value(ts_s * 1e6);
    w.key("dur").value(dur_s * 1e6);
    w.key("args").begin_object();
    w.key("superstep").value(static_cast<unsigned long long>(superstep));
    if (batch != 0) {
      w.key("batch").value(static_cast<unsigned long long>(batch));
    }
    if (detail != nullptr) {
      if (detail->edges != 0) {
        w.key("edges").value(static_cast<unsigned long long>(detail->edges));
      }
      if (detail->vertices != 0) {
        w.key("vertices").value(
            static_cast<unsigned long long>(detail->vertices));
      }
      if (detail->bytes != 0) {
        w.key("bytes").value(static_cast<unsigned long long>(detail->bytes));
      }
      if (detail->items != 0) {
        w.key("items").value(static_cast<unsigned long long>(detail->items));
      }
      if (detail->peer >= 0) {
        w.key("peer").value(static_cast<long long>(detail->peer));
      }
      if (detail->wall_s > 0) {
        w.key("wall_us").value(detail->wall_s * 1e6);
      }
    }
    w.end_object();
    w.end_object();
  };

  for (const TraceSpan& span : spans) {
    const double base = span.superstep < offsets.size()
                            ? offsets[span.superstep]
                            : offsets.back();
    emit_span(span.name, to_string(span.category), span.gpu, span.track,
              base + span.start_s, span.end_s - span.start_s, &span,
              span.superstep, span.batch);
  }

  // One synthesized barrier span per superstep: l(n) sits at the end
  // of the superstep's body, on the host pid.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const SuperstepTrace& step : supersteps_) {
      emit_span(step.pipeline ? "barrier (convergence)" : "barrier (x2)",
                to_string(TraceCategory::kSync), host_pid, 0,
                offsets[step.index] + step.body_s(), step.overhead_s,
                nullptr, step.index, step.batch);
    }
  }

  w.end_array();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData").begin_object();
  w.key("dropped_spans").value(
      static_cast<unsigned long long>(dropped_spans()));
  w.key("modeled_total_s").value(offsets.back());
  w.end_object();
  w.end_object();
  return w.str();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::string json = chrome_trace_json();
  std::ofstream out(path);
  MGG_CHECK(out.good(), Status::kIoError, "cannot open " + path);
  out << json;
  MGG_CHECK(out.good(), Status::kIoError, "write failed for " + path);
}

}  // namespace mgg::vgpu
