#include "core/enactor.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "vgpu/fault.hpp"

namespace mgg::core {

EnactorBase::EnactorBase(ProblemBase& problem)
    : problem_(problem),
      n_(problem.num_gpus()),
      pipeline_(problem.config().sync_mode == SyncMode::kEventPipeline) {
  const Config& cfg = problem.config();
  slices_.reserve(n_);
  for (int gpu = 0; gpu < n_; ++gpu) {
    auto s = std::make_unique<Slice>();
    s->gpu = gpu;
    s->device = &problem.device(gpu);
    s->peer_signaled.assign(static_cast<std::size_t>(n_), 0);
    s->sub = &problem.sub(gpu);
    const graph::Graph& csr = s->sub->csr;
    s->frontier.init(*s->device, cfg.scheme, csr.num_vertices,
                     csr.num_edges);
    s->dedup.resize(csr.num_vertices);

    // The split (non-fused) pipeline keeps an intermediate advance
    // buffer whose size is the allocation scheme's signature (§VI-B):
    // worst case |E_i| for max, a sizing factor for fixed (grown to the
    // advance's degree sum when that is larger), nothing for the fused
    // schemes. It is modeled device memory only: the split advance
    // sizes it but never writes it (core/operators.hpp).
    s->advance_temp.set_allocator(&s->device->memory());
    s->advance_temp_edges.set_allocator(&s->device->memory());
    if (cfg.scheme == vgpu::AllocationScheme::kMax) {
      s->advance_temp.allocate(csr.num_edges);
      s->advance_temp_edges.allocate(csr.num_edges);
    } else if (cfg.scheme == vgpu::AllocationScheme::kFixedPrealloc) {
      const std::size_t factor = static_cast<std::size_t>(
          static_cast<double>(csr.num_edges) * 0.4 + 16);
      s->advance_temp.allocate(factor);
      s->advance_temp_edges.allocate(factor);
    }

    s->ctx = OpContext{s->device,
                       &csr,
                       &s->frontier,
                       &s->advance_temp,
                       &s->advance_temp_edges,
                       &s->dedup,
                       cfg.scheme};
    slices_.push_back(std::move(s));
  }
  bus_ = std::make_unique<CommBus>(problem.machine());
  if (pipeline_) {
    handshakes_ =
        std::make_unique<HandshakeTable>(n_, cfg.watchdog_deadline_s);
  }
  // The barrier completes when its slowest participant arrives, so a
  // heterogeneous machine's l(n) is scaled by the max across devices,
  // not device 0's value.
  sync_scale_ = 0;
  for (const auto& s : slices_) {
    sync_scale_ = std::max(sync_scale_, s->device->model().sync_scale);
  }
  errors_.assign(static_cast<std::size_t>(n_) + 1, nullptr);
  step_.pipeline = pipeline_;
  step_.gpu_compute_s.assign(static_cast<std::size_t>(n_), 0.0);
  step_.gpu_comm_s.assign(static_cast<std::size_t>(n_), 0.0);
  step_.gpu_comm_tail_s.assign(static_cast<std::size_t>(n_), 0.0);

  if (!pipeline_) push_barrier_ = std::make_unique<std::barrier<>>(n_);
  // The completion runs exclusively, so close_iteration may touch
  // plain member state.
  barrier_ = std::make_unique<std::barrier<std::function<void()>>>(
      n_, std::function<void()>([this] { close_iteration(); }));

  // Spawn the per-GPU control threads (paper: "Our framework manages
  // each GPU by a dedicated CPU thread to avoid false dependencies
  // between GPUs").
  status_.assign(n_, ThreadStatus::kWait);
  threads_.reserve(n_);
  for (int gpu = 0; gpu < n_; ++gpu) {
    threads_.emplace_back([this, gpu] { worker(gpu); });
  }
}

EnactorBase::~EnactorBase() {
  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    for (auto& st : status_) st = ThreadStatus::kToKill;
  }
  status_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void EnactorBase::fill_vertex_associates(Slice&, int,
                                         std::span<const VertexT>,
                                         VertexT*) {
  MGG_ASSERT(false,
             "primitive declared vertex associates but did not "
             "implement fill_vertex_associates");
}

void EnactorBase::fill_value_associates(Slice&, int,
                                        std::span<const VertexT>,
                                        ValueT*) {
  MGG_ASSERT(false,
             "primitive declared value associates but did not "
             "implement fill_value_associates");
}

void EnactorBase::begin_iteration(std::uint64_t) {}
bool EnactorBase::converged(bool all_frontiers_empty, std::uint64_t) {
  return all_frontiers_empty;
}

void EnactorBase::reset_frontiers() {
  for (auto& s : slices_) s->frontier.clear();
}

void EnactorBase::seed_frontier(int gpu,
                                std::span<const VertexT> local_vertices) {
  slice(gpu).frontier.set_input(local_vertices);
}

std::uint64_t EnactorBase::total_combine_items() const {
  std::uint64_t total = 0;
  for (const auto& s : slices_) total += s->combine_items;
  return total;
}

vgpu::RunStats EnactorBase::enact() {
  const Config& cfg = problem_.config();
  run_stats_ = vgpu::RunStats{};
  iteration_records_.clear();
  iteration_ = 0;
  stop_flag_.store(false, std::memory_order_release);
  error_flag_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    std::fill(errors_.begin(), errors_.end(), nullptr);
  }
  bus_->reset();
  if (pipeline_) handshakes_->reset();
  tracer_ = problem_.machine().tracer();
  // Fault/recovery wiring. All of it is inert on a fault-free default
  // machine: no injector, max_oom_regrows defaults to 0, and the retry
  // policy is only consulted under an injector.
  vgpu::FaultInjector* injector = problem_.machine().fault_injector();
  bus_->set_retry_policy(cfg.max_comm_retries);
  if (pipeline_) handshakes_->set_fault_injector(injector);
  oom_regrows_.store(0, std::memory_order_relaxed);
  const std::uint64_t comm_retry_base = bus_->comm_retries();
  const WireStats wire_base = bus_->wire_stats();
  const CommBus::LinkBytes link_base = bus_->link_bytes();
  const std::uint64_t gateway_merge_base = bus_->gateway_merges();
  const std::uint64_t gateway_dedup_base = bus_->gateway_dedup_items();
  // Two-level combine (docs/architecture.md §14): active only when
  // requested *and* the machine actually has a node hierarchy — on a
  // single-node machine the flag is inert and the flat path runs
  // untouched. Installed after the bus reset, before any worker can
  // push.
  const vgpu::Interconnect& net = problem_.machine().interconnect();
  two_level_active_ = cfg.two_level_combine && net.has_nodes() && n_ > 1;
  bus_->set_two_level({two_level_active_, cfg.wire_format});
  const std::uint64_t fault_base =
      injector != nullptr ? injector->injected_count() : 0;
  run_stats_.watchdog_deadline_s = cfg.watchdog_deadline_s;
  run_stats_.enact_deadline_s = enact_deadline_s_;
  // The per-run deadline's budget clock starts now.
  enact_timer_.restart();
  // Dense frontiers are strictly opt-in: the threshold only reaches the
  // operator contexts when the primitive declares support. Wired here
  // (not the constructor) because dense_frontier_capable() is virtual.
  const double dense_threshold =
      dense_frontier_capable() ? problem_.config().dense_threshold : 0.0;
  // Host execution width (docs/architecture.md §12): size the shared
  // worker pool once per run. The pool pointer only reaches the
  // operator contexts and comm paths when it buys parallelism; either
  // way results, W, H, and modeled times are bit-identical.
  const int host_width = util::ThreadPool::resolve_width(cfg.host_threads);
  util::ThreadPool::shared().set_workers(host_width);
  host_pool_ = host_width > 1 ? &util::ThreadPool::shared() : nullptr;
  bus_->set_host_pool(host_pool_);
  std::uint64_t dense_switch_base = 0;
  for (auto& s : slices_) {
    s->combine_items = 0;
    s->ctx.dense_threshold = dense_threshold;
    s->ctx.pool = host_pool_;
    s->superstep = 0;
    std::fill(s->peer_signaled.begin(), s->peer_signaled.end(), 0);
    dense_switch_base += s->frontier.dense_switches();
    s->device->harvest_iteration();  // drop stale counters
  }
  begin_iteration(0);

  util::WallTimer timer;
  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    for (auto& st : status_) st = ThreadStatus::kRunning;
  }
  status_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(status_mutex_);
    status_cv_.wait(lock, [this] {
      for (const auto& st : status_) {
        if (st != ThreadStatus::kIdle) return false;
      }
      return true;
    });
    for (auto& st : status_) st = ThreadStatus::kWait;
  }
  run_stats_.wall_s = timer.seconds();
  run_stats_.oom_regrows = oom_regrows_.load(std::memory_order_relaxed);
  run_stats_.comm_retries = bus_->comm_retries() - comm_retry_base;
  {
    const WireStats wire_now = bus_->wire_stats();
    run_stats_.wire_bytes_raw = wire_now.bytes_raw - wire_base.bytes_raw;
    run_stats_.wire_bytes_bitmap =
        wire_now.bytes_bitmap - wire_base.bytes_bitmap;
    run_stats_.wire_bytes_delta =
        wire_now.bytes_delta - wire_base.bytes_delta;
    run_stats_.wire_encode_vertices =
        wire_now.encoded_vertices - wire_base.encoded_vertices;
    run_stats_.wire_decode_vertices =
        wire_now.decoded_vertices - wire_base.decoded_vertices;
  }
  {
    const CommBus::LinkBytes link_now = bus_->link_bytes();
    run_stats_.intra_node_bytes = link_now.intra - link_base.intra;
    run_stats_.inter_node_bytes = link_now.inter - link_base.inter;
    run_stats_.gateway_merges = bus_->gateway_merges() - gateway_merge_base;
    run_stats_.gateway_dedup_items =
        bus_->gateway_dedup_items() - gateway_dedup_base;
  }
  if (injector != nullptr) {
    run_stats_.faults_injected = injector->injected_count() - fault_base;
  }
  run_stats_.total_combine_items = total_combine_items();
  for (const auto& s : slices_) {
    run_stats_.dense_switches += s->frontier.dense_switches();
  }
  run_stats_.dense_switches -= dense_switch_base;

  // Deterministic rethrow: the lowest-numbered GPU's error wins, then
  // the close_iteration slot — regardless of which thread recorded
  // first during the run.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    for (auto& slot : errors_) {
      if (slot != nullptr) {
        error = slot;
        break;
      }
    }
    std::fill(errors_.begin(), errors_.end(), nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
  return run_stats_;
}

void EnactorBase::worker(int gpu) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(status_mutex_);
      status_cv_.wait(lock, [this, gpu] {
        return status_[gpu] == ThreadStatus::kRunning ||
               status_[gpu] == ThreadStatus::kToKill;
      });
      if (status_[gpu] == ThreadStatus::kToKill) return;
    }
    run_loop(gpu);
    {
      std::lock_guard<std::mutex> lock(status_mutex_);
      status_[gpu] = ThreadStatus::kIdle;
    }
    status_cv_.notify_all();
  }
}

void EnactorBase::record_error(int slot) {
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (errors_[slot] == nullptr) errors_[slot] = std::current_exception();
  }
  error_flag_.store(true, std::memory_order_release);
  // Pipeline mode: receivers block on per-sender handshakes, not on a
  // barrier, so a worker that dies before publishing would strand
  // them. Aborting the table returns every present and future take();
  // everyone then drains to the convergence barrier under the shared
  // error flag, exactly like the barrier schedule.
  if (pipeline_) handshakes_->abort();
}

void EnactorBase::run_loop(int gpu) {
  Slice& s = slice(gpu);
  for (;;) {
    // --- compute + package/push ---
    // In pipeline mode communicate() pushes each peer's message as
    // soon as its bucket is packaged and (on the framework paths)
    // publishes the handshake right behind it, so early peers'
    // transfers and combines overlap the packaging of later peers.
    try {
      if (!has_error()) {
        run_core_with_recovery(s);
        communicate(s);
      }
    } catch (...) {
      record_error(gpu);
    }
    if (pipeline_) {
      // Complete this sender's handshake row even when the hooks threw
      // or were skipped: receivers block on these handshakes, not a
      // barrier.
      try {
        publish_handshakes(s);
      } catch (...) {
        record_error(gpu);  // record_error aborts the table -> no hangs
      }
    } else {
      push_barrier_->arrive_and_wait();  // A: all messages deposited
    }

    // --- combine (ExpandIncoming), sender by sender in ascending src
    // order: with drain_from's per-sender tag sort this is the
    // deterministic (src_gpu, tag) combine order in both schedules ---
    for (int src = 0; src < n_; ++src) {
      if (src == s.gpu) continue;
      try {
        // Every push the sender made to us this superstep has landed
        // once this returns (cudaStreamWaitEvent analog).
        if (pipeline_) take_handshake(s, src);
        auto& messages = bus_->drain_from(s.gpu, src);
        if (!has_error()) {
          for (const Message& msg : messages) {
            expand_incoming(s, msg);
            s.combine_items += msg.vertices.size();
            // The combine kernel is communication computation (C).
            s.device->add_kernel_cost(0, msg.vertices.size(), 1, "combine",
                                      vgpu::TraceCategory::kCombine);
          }
        }
        // Recycle before the next sender's drain, so the pooled
        // buffers are also available to every sender next iteration.
        bus_->release_drained(s.gpu);
      } catch (...) {
        record_error(gpu);
      }
    }

    ++s.superstep;
    barrier_->arrive_and_wait();  // convergence barrier (B): closes step

    if (stop_flag_.load(std::memory_order_acquire)) break;
  }
}

void EnactorBase::take_handshake(Slice& s, int src) {
  // Trace the wait as a zero-width marker at the current modeled
  // compute position (the model prices waits via the superstep
  // critical path, not per handshake); wall_s captures the host-side
  // stall for diagnosis.
  const bool traced = tracer_ != nullptr;
  const double wait_pos = traced ? s.device->modeled_compute_time() : 0.0;
  util::WallTimer wait_timer;
  handshakes_->take(src, s.gpu, s.superstep);
  if (traced) {
    vgpu::TraceSpan span;
    span.name = "handshake_wait";
    span.category = vgpu::TraceCategory::kWait;
    span.gpu = static_cast<std::int16_t>(s.gpu);
    span.track = 0;
    span.peer = src;
    span.start_s = wait_pos;
    span.end_s = wait_pos;
    span.wall_s = wait_timer.seconds();
    tracer_->record(span);
  }
}

void EnactorBase::run_core_with_recovery(Slice& s) {
  const Config& cfg = problem_.config();
  int attempts = 0;
  for (;;) {
    try {
      iteration_core(s);
      return;
    } catch (const Error& e) {
      if (e.status() != Status::kOutOfMemory || !core_replayable() ||
          attempts >= cfg.max_oom_regrows || has_error()) {
        throw;
      }
      // Grow-and-retry (§IV-C spirit): free the output queue *first*,
      // then regrow with headroom — Array1D::ensure_size allocates the
      // new block before releasing the old one, so release-then-grow is
      // what lowers the retry's peak footprint below the failing
      // attempt's. recover_output_oom returning false means the OOM did
      // not come from a tracked frontier growth (e.g. an injected
      // transient alloc fault at another site); the replay proceeds
      // anyway — that site consumed a fault event, so a transient
      // clears on its own, and a persistent capacity overflow simply
      // re-throws once the regrow budget is spent.
      constexpr double kOomHeadroom = 1.5;  // regrow factor
      s.frontier.recover_output_oom(kOomHeadroom);
      ++attempts;
      oom_regrows_.fetch_add(1, std::memory_order_relaxed);
      if (tracer_ != nullptr) {
        vgpu::TraceSpan span;
        span.name = "oom_regrow";
        span.category = vgpu::TraceCategory::kFault;
        span.gpu = static_cast<std::int16_t>(s.gpu);
        span.track = 0;
        span.items = static_cast<std::uint64_t>(attempts);
        span.start_s = s.device->modeled_compute_time();
        span.end_s = span.start_s;
        tracer_->record(span);
      }
    }
  }
}

void EnactorBase::mark_peer_done(Slice& s, int peer) {
  if (!pipeline_ || peer == s.gpu) return;
  MGG_ASSERT(!s.peer_signaled[peer],
             "mark_peer_done called twice for one peer in a superstep");
  handshakes_->publish(s.gpu, peer, s.superstep);
  s.peer_signaled[peer] = 1;
}

void EnactorBase::publish_handshakes(Slice& s) {
  for (int peer = 0; peer < n_; ++peer) {
    if (!s.peer_signaled[peer]) mark_peer_done(s, peer);
  }
  std::fill(s.peer_signaled.begin(), s.peer_signaled.end(), 0);
}

void EnactorBase::close_iteration() {
  // A throw out of a std::barrier completion callback would terminate
  // the process (and strand every thread parked on the barrier), so
  // the fallible work — primitive hooks included — is fenced here and
  // converted into the regular error-stop protocol.
  try {
    close_iteration_body();
  } catch (...) {
    record_error(n_);
    stop_flag_.store(true, std::memory_order_release);
  }
}

void EnactorBase::close_iteration_body() {
  // Deadline check first: it routes through close_iteration's catch
  // into the regular error-stop protocol (record_error(n_) + stop
  // flag), so workers drain out of the loop and the enactor stays
  // reusable. Checked here because every superstep closes through this
  // exclusive callback in both schedules; a *stalled* pipeline
  // superstep never closes, which is exactly the case the bounded
  // handshake wait (Config::watchdog_deadline_s) covers.
  if (enact_deadline_s_ > 0 &&
      enact_timer_.seconds() > enact_deadline_s_) {
    throw Error(Status::kTimedOut,
                "enactment deadline of " +
                    std::to_string(enact_deadline_s_) + " s exceeded after " +
                    std::to_string(iteration_) + " superstep(s)");
  }
  // Realize the gateways' staged inter-node pushes *before* harvesting:
  // the merge/encode kernels and the merged transfers belong to the
  // closing superstep's counters. Safe here: this runs exclusively in
  // the barrier completion, after every sender's pushes returned in
  // both schedules. May throw (the gateway hop is a
  // fault-injection surface); close_iteration() converts that into the
  // regular error stop.
  if (two_level_active_) bus_->flush_relays();
  vgpu::IterationRecord record;
  record.iteration = iteration_;
  double sum_compute = 0;
  for (auto& s : slices_) {
    const vgpu::IterationCounters c = s->device->harvest_iteration();
    run_stats_.total_edges += c.edges;
    run_stats_.total_vertices += c.vertices;
    run_stats_.total_launches += c.launches;
    run_stats_.total_comm_bytes += c.bytes_out;
    run_stats_.total_comm_items += c.items_out;
    record.edges += c.edges;
    record.comm_items += c.items_out;
    // A GPU's superstep ends when both its stream timelines do: its
    // kernels (compute_s) and its last transfer (comm_tail_s, which
    // already accounts for transfers waiting on the kernels that
    // packaged them via the push-time ready stamp).
    step_.gpu_compute_s[s->gpu] = c.compute_s;
    step_.gpu_comm_s[s->gpu] = c.comm_s;
    step_.gpu_comm_tail_s[s->gpu] = c.comm_tail_s;
    sum_compute += c.compute_s;
  }
  const double max_compute = step_.max_compute_s();
  const double max_comm = step_.max_comm_s();
  run_stats_.modeled_compute_s += max_compute;
  run_stats_.modeled_comm_s += max_comm;
  // Overlap credit (pipeline schedule only): the barrier schedule is
  // charged serially, max(compute) + max(comm); the pipeline's charge
  // is the per-GPU critical path of the two overlapped streams
  // (body_s). The difference is the comm time hidden under compute —
  // provably in [0, max_comm] since the critical path covers both.
  const double hidden =
      pipeline_ ? std::max(0.0, max_compute + max_comm - step_.body_s())
                : 0.0;
  run_stats_.modeled_overlap_hidden_s += hidden;
  // One barrier's worth of latency per superstep in pipeline mode (only
  // the convergence barrier remains); two in BSP. The two-barrier value
  // is bit-identical to the historical l(n) charge. The two-level
  // combine adds one more: the node-local rendezvous at which the
  // gateways' merged pushes are released.
  const int barriers = (pipeline_ ? 1 : 2) + (two_level_active_ ? 1 : 0);
  const double overhead =
      vgpu::sync_overhead_seconds(n_, barriers) * sync_scale_;
  run_stats_.modeled_overhead_s += overhead;
  if (tracer_ != nullptr) {
    // Safe here: this runs exclusively in the barrier completion, after
    // every worker's pushes returned — all of this superstep's spans
    // are recorded, none of the next one's.
    step_.iteration = iteration_;
    step_.overhead_s = overhead;
    step_.hidden_s = hidden;
    tracer_->close_superstep(step_);
  }
  ++run_stats_.iterations;
  ++iteration_;

  bool all_empty = true;
  for (const auto& s : slices_) {
    record.frontier_total += s->frontier.input_size();
    record.dense_gpus += s->frontier.last_advance_dense() ? 1 : 0;
    if (s->frontier.input_size() != 0) {
      all_empty = false;
    }
  }
  record.compute_s = max_compute;
  record.comm_s = max_comm;
  record.overhead_s = overhead;
  record.comm_hidden_s = hidden;
  record.comm_hidden_frac =
      max_comm > 0 ? std::min(1.0, hidden / max_comm) : 0.0;
  record.gpu_imbalance =
      sum_compute > 0 ? max_compute / (sum_compute / n_) : 1.0;
  iteration_records_.push_back(record);
  const bool stop = has_error() ||
                    iteration_ >= problem_.config().max_iterations ||
                    converged(all_empty, iteration_);
  if (!stop) begin_iteration(iteration_);
  stop_flag_.store(stop, std::memory_order_release);
}

void EnactorBase::communicate(Slice& s) {
  split_frontier_and_push(s);
}

SizeT EnactorBase::route_output_frontier(Slice& s) {
  Frontier& frontier = s.frontier;
  const part::SubGraph& sub = *s.sub;
  constexpr std::size_t kRouteGrain = 4096;
  const std::size_t n_out = frontier.output_size();
  const std::size_t n_chunks =
      host_pool_ != nullptr && !frontier.output_dense()
          ? util::ThreadPool::chunk_count(n_out, kRouteGrain)
          : 1;
  if (n_chunks <= 1) {
    // Counting pass: remote items per owning peer.
    s.route_offsets.assign(static_cast<std::size_t>(n_) + 1, 0);
    frontier.for_each_output([&](VertexT v) {
      if (!sub.is_hosted(v)) ++s.route_offsets[sub.owner[v] + 1];
    });
    for (int p = 0; p < n_; ++p) {
      s.route_offsets[p + 1] += s.route_offsets[p];
    }
    s.route_cursor.assign(s.route_offsets.begin(),
                          s.route_offsets.begin() + n_);
    s.route_sources.resize(s.route_offsets[n_]);
    // Scatter pass, fused with the in-place local compaction.
    // Encounter order within each bucket matches the old per-peer
    // push_back order, so message bytes are unchanged.
    return frontier.split_output(
        [&](VertexT v) { return sub.is_hosted(v); },
        [&](VertexT v) {
          s.route_sources[s.route_cursor[sub.owner[v]]++] = v;
        });
  }

  // Parallel counting-sort over fixed chunks of the sparse output:
  // each chunk stages its kept and routed vertices locally in scan
  // order, the tiny cross-chunk prefix runs serially, and the chunks
  // scatter to their exact final positions — reproducing the
  // sequential pass's stable bucket layout and in-place compaction
  // byte for byte.
  auto& chunks = s.route_chunks;
  if (chunks.size() < n_chunks) chunks.resize(n_chunks);
  const VertexT* raw = frontier.mutable_output();
  host_pool_->run_chunks(n_chunks, [&](std::size_t c) {
    Slice::RouteChunk& ch = chunks[c];
    ch.kept.clear();
    ch.routed.clear();
    ch.peer_count.assign(static_cast<std::size_t>(n_), 0);
    const std::size_t b = util::ThreadPool::chunk_begin(n_out, n_chunks, c);
    const std::size_t e =
        util::ThreadPool::chunk_begin(n_out, n_chunks, c + 1);
    for (std::size_t i = b; i < e; ++i) {
      const VertexT v = raw[i];
      if (sub.is_hosted(v)) {
        ch.kept.push_back(v);
      } else {
        ++ch.peer_count[sub.owner[v]];
        ch.routed.push_back(v);
      }
    }
  });
  // Bucket boundaries (identical to the sequential counting pass),
  // then turn each chunk's per-peer counts into its scatter bases and
  // lay out the kept-prefix bases.
  s.route_offsets.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (std::size_t c = 0; c < n_chunks; ++c) {
    for (int p = 0; p < n_; ++p) {
      s.route_offsets[p + 1] += chunks[c].peer_count[p];
    }
  }
  for (int p = 0; p < n_; ++p) {
    s.route_offsets[p + 1] += s.route_offsets[p];
  }
  s.route_cursor.assign(s.route_offsets.begin(),
                        s.route_offsets.begin() + n_);
  s.route_sources.resize(s.route_offsets[n_]);
  SizeT kept_base[util::ThreadPool::kMaxChunks];
  SizeT kept_total = 0;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    Slice::RouteChunk& ch = chunks[c];
    kept_base[c] = kept_total;
    kept_total += static_cast<SizeT>(ch.kept.size());
    for (int p = 0; p < n_; ++p) {
      const SizeT count = ch.peer_count[p];
      ch.peer_count[p] = s.route_cursor[p];
      s.route_cursor[p] += count;
    }
  }
  // Scatter: disjoint destination ranges, chunk-local sources only
  // (every read of the output buffer happened in the staging pass, so
  // the in-place kept writes race nothing).
  VertexT* out = frontier.mutable_output();
  host_pool_->run_chunks(n_chunks, [&](std::size_t c) {
    Slice::RouteChunk& ch = chunks[c];
    if (!ch.kept.empty()) {
      std::memcpy(out + kept_base[c], ch.kept.data(),
                  ch.kept.size() * sizeof(VertexT));
    }
    for (const VertexT v : ch.routed) {
      s.route_sources[ch.peer_count[sub.owner[v]]++] = v;
    }
  });
  frontier.commit_output(kept_total);
  return kept_total;
}

void EnactorBase::encode_for_wire(Slice& s, Message& msg) {
  const Config& cfg = problem_.config();
  if (cfg.wire_format == WireFormat::kRawIds || msg.empty()) return;
  const std::size_t n = msg.vertices.size();
  const WireFormat applied = wire::encode(msg, cfg.wire_format, host_pool_);
  if (applied == WireFormat::kRawIds) return;
  // Modeled encode kernel on the sender's compute timeline: the
  // W-vs-H tradeoff the compressed formats buy is charged where the
  // compression runs. One launch over the message's n vertices,
  // identical across sync modes (encode happens once per message at
  // package time in both schedules).
  s.device->add_kernel_cost(0, n, 1,
                            applied == WireFormat::kBitmap
                                ? "wire_encode_bitmap"
                                : "wire_encode_varint");
  // Encoded-vertex accounting happens in CommBus::push (per pushed
  // message, so broadcast clones of one encoded proto each count).
}

void EnactorBase::fill_associates(Slice& s, std::span<const VertexT> sources,
                                  Message& msg, int nva, int nvv) {
  // One gather pass per associate slot, chunked over disjoint source
  // subranges when the pool is installed. out[i] positions are fixed,
  // so the packaged bytes are identical at every width.
  constexpr std::size_t kGatherGrain = 4096;
  for (int slot = 0; slot < nva; ++slot) {
    VertexT* out = msg.vertex_slot(slot).data();
    util::parallel_for(host_pool_, sources.size(), kGatherGrain,
                       [&](std::size_t b, std::size_t e, std::size_t) {
                         fill_vertex_associates(
                             s, slot, sources.subspan(b, e - b), out + b);
                       });
  }
  for (int slot = 0; slot < nvv; ++slot) {
    ValueT* out = msg.value_slot(slot).data();
    util::parallel_for(host_pool_, sources.size(), kGatherGrain,
                       [&](std::size_t b, std::size_t e, std::size_t) {
                         fill_value_associates(
                             s, slot, sources.subspan(b, e - b), out + b);
                       });
  }
}

void EnactorBase::split_frontier_and_push(Slice& s) {
  Frontier& frontier = s.frontier;
  if (n_ == 1) {
    frontier.swap();
    return;
  }
  const part::SubGraph& sub = *s.sub;
  const SizeT out_items = frontier.output_size();
  const CommStrategy strategy = problem_.config().comm;
  const int nva = num_vertex_associates();
  const int nvv = num_value_associates();

  // Pipeline mode charges the split/package kernel in per-peer chunks
  // (tracked here) so each transfer's ready stamp covers only the
  // packaging it actually waited for; the tail charge below tops the
  // totals up to the barrier schedule's single (out_items, 1 launch)
  // charge, keeping W bit-identical across modes.
  std::uint64_t chunk_vertices = 0;
  std::uint64_t chunk_launches = 0;

  if (strategy == CommStrategy::kBroadcast) {
    // Each peer receives the whole generated frontier (duplicate-all
    // guarantees local ID == global ID on every GPU). Package once
    // into the slice's persistent prototype — one batched gather pass
    // per associate slot — then stamp a pooled copy out per peer.
    if (out_items != 0) {
      Message& proto = s.broadcast_proto;
      proto.recycle();
      proto.set_layout(nva, nvv, out_items);
      std::size_t i = 0;
      frontier.for_each_output([&](VertexT v) { proto.vertices[i++] = v; });
      const std::span<const VertexT> sent(proto.vertices.data(),
                                          static_cast<std::size_t>(out_items));
      fill_associates(s, sent, proto, nva, nvv);
      if (pipeline_) {
        // The single packaging pass produced every peer's payload, so
        // the whole charge lands before the first push: each transfer
        // becomes ready the moment packaging finished.
        s.device->add_kernel_cost(0, out_items, 1, "split_package");
        chunk_vertices = out_items;
        chunk_launches = 1;
      }
      // Encode the prototype once (every peer ships the same payload,
      // so one encode kernel covers all copies — assign_from clones
      // the encoded bytes).
      encode_for_wire(s, proto);
      for (int peer = 0; peer < n_; ++peer) {
        if (peer == s.gpu) continue;
        Message message = bus_->acquire();
        message.assign_from(proto);
        bus_->push(s.gpu, peer, std::move(message));
        mark_peer_done(s, peer);
      }
    } else {
      for (int peer = 0; peer < n_; ++peer) mark_peer_done(s, peer);
    }
    frontier.split_output([&](VertexT v) { return sub.is_hosted(v); },
                          [](VertexT) {});
  } else {
    // Selective: flat route pass first (compact the local sub-frontier
    // in place, scatter each remote vertex's sender-local ID into its
    // peer bucket), then one packaging pass per peer with one batched
    // gather per associate slot.
    route_output_frontier(s);
    for (int peer = 0; peer < n_; ++peer) {
      if (peer == s.gpu) continue;
      const std::span<const VertexT> sources = peer_bucket(s, peer);
      if (sources.empty()) {
        mark_peer_done(s, peer);
        continue;
      }
      if (pipeline_) {
        // This peer's slice of the packaging kernel: its transfer may
        // start once this chunk is done, not after the whole pass.
        s.device->add_kernel_cost(0, sources.size(), 0, "split_package");
        chunk_vertices += sources.size();
      }
      Message message = bus_->acquire();
      message.set_layout(nva, nvv, sources.size());
      // Translate to receiver-local IDs (the conversion-table pass; a
      // disjoint-position gather, so parallel-safe and byte-exact).
      util::parallel_for(host_pool_, sources.size(), 4096,
                         [&](std::size_t b, std::size_t e, std::size_t) {
                           for (std::size_t i = b; i < e; ++i) {
                             message.vertices[i] =
                                 sub.host_local_id[sources[i]];
                           }
                         });
      fill_associates(s, sources, message, nva, nvv);
      encode_for_wire(s, message);
      bus_->push(s.gpu, peer, std::move(message));
      mark_peer_done(s, peer);
    }
  }

  // The split/package step is itself a kernel (C in Table I). In
  // pipeline mode only the not-yet-charged remainder (the local
  // compaction share, plus the launch unless broadcast charged it).
  if (pipeline_) {
    s.device->add_kernel_cost(0, out_items - chunk_vertices,
                              1 - chunk_launches, "split_package");
  } else {
    s.device->add_kernel_cost(0, out_items, 1, "split_package");
  }
  frontier.swap();
}

}  // namespace mgg::core
