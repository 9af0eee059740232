#include "primitives/bc.hpp"

#include <algorithm>

#include "primitives/common.hpp"
#include "util/error.hpp"

namespace mgg::prim {

namespace {
// Message tags (see bc.hpp header comment).
constexpr int kSigmaPartial = 0;    // selective: (v, sigma partial)
constexpr int kFinalizedLevel = 1;  // broadcast: (v, sigma final), depth
constexpr int kDeltaPartial = 2;    // selective: (v, delta partial)
}  // namespace

void BcProblem::init_data_slice(int gpu) {
  MGG_REQUIRE(config().duplication == part::Duplication::kAll,
              "BC requires duplicate-all (replicas need global sigma/"
              "depth for the backward pass)");
  if (slices_.empty()) slices_.resize(num_gpus());
  DataSlice& d = slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  auto& mem = device(gpu).memory();
  d.depth.set_allocator(&mem);
  d.depth.allocate(s.num_total());
  d.sigma.set_allocator(&mem);
  d.sigma.allocate(s.num_total());
  d.sigma_acc.set_allocator(&mem);
  d.sigma_acc.allocate(s.num_total());
  d.delta_acc.set_allocator(&mem);
  d.delta_acc.allocate(s.num_total());
  d.bc.set_allocator(&mem);
  d.bc.allocate(s.num_total());
  d.bc.fill(0);
  d.border = proxy_vertices(s);
}

void BcProblem::reset(VertexT src) {
  MGG_REQUIRE(src < partitioned().global_vertices(), "source out of range");
  source_ = src;
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    DataSlice& d = slices_[gpu];
    d.depth.fill(kInvalidVertex);
    d.sigma.fill(0);
    d.sigma_acc.fill(0);
    d.delta_acc.fill(0);
    d.levels.clear();
    // Duplicate-all: every replica knows the source.
    d.depth[src] = 0;
    d.sigma[src] = 1;
    d.sigma_acc[src] = 1;
  }
}

void BcEnactor::reset(VertexT src) {
  bc_problem_.reset(src);
  reset_frontiers();
  phase_ = Phase::kForward;
  current_level_ = 0;
  const auto [host, host_local] = bc_problem_.locate(src);
  const VertexT seed[] = {host_local};
  seed_frontier(host, seed);
}

void BcEnactor::iteration_core(Slice& s) {
  if (phase_ == Phase::kForward) {
    core_forward(s);
  } else {
    core_backward(s);
  }
}

void BcEnactor::core_forward(Slice& s) {
  BcProblem::DataSlice& d = bc_problem_.data(s.gpu);
  const VertexT level = static_cast<VertexT>(iteration());
  const VertexT next_level = level + 1;
  const auto input = s.frontier.input();

  // Finalize this level's hosted vertices: all sigma partials (local
  // and received) have arrived by now. Record the level list for the
  // backward pass and the finalized broadcast.
  if (d.levels.size() <= level) d.levels.resize(level + 1);
  auto& lvl = d.levels[level];
  lvl.assign(input.begin(), input.end());
  for (const VertexT v : lvl) d.sigma[v] = d.sigma_acc[v];
  s.device->add_kernel_cost(0, input.size(), 1, 1.0, "bc_level");

  // (test, op) form: the test covers both live cases (undiscovered, or
  // discovered *by this advance* at next_level — the latter is always
  // false against the pre-advance depths, but every edge that matters
  // passes the undiscovered test then). The op replay accumulates
  // sigma_acc in the original sequential edge order.
  core::advance_filter(
      s.ctx,
      [&](VertexT, VertexT v, SizeT) {
        return d.depth[v] == kInvalidVertex || d.depth[v] == next_level;
      },
      [&](VertexT u, VertexT v, SizeT) {
        if (d.depth[v] == kInvalidVertex) {
          d.depth[v] = next_level;
          d.sigma_acc[v] += d.sigma[u];
          return true;
        }
        if (d.depth[v] == next_level) {
          d.sigma_acc[v] += d.sigma[u];  // another shortest path
        }
        return false;
      });
}

void BcEnactor::core_backward(Slice& s) {
  BcProblem::DataSlice& d = bc_problem_.data(s.gpu);
  const graph::Graph& g = s.sub->csr;
  const VertexT lvl = current_level_;

  std::uint64_t edge_work = 0;
  if (lvl < d.levels.size()) {
    const auto& level = d.levels[lvl];
    util::ThreadPool* pool = s.ctx.pool;
    const std::size_t n_chunks =
        util::ThreadPool::chunk_count(level.size(), core::detail::kSlotGrain);
    if (pool == nullptr || n_chunks == 1) {
      for (const VertexT w : level) {
        const double delta_w = d.delta_acc[w];
        d.bc[w] += delta_w;
        const double coeff = (1.0 + delta_w) / d.sigma[w];
        const auto [begin, end] = g.edge_range(w);
        for (SizeT e = begin; e < end; ++e) {
          const VertexT v = g.col_indices[e];
          if (d.depth[v] + 1 == d.depth[w]) {
            d.delta_acc[v] += d.sigma[v] * coeff;
          }
        }
        edge_work += end - begin;
      }
    } else {
      // Two-phase chunk-log parallelization. Sources w sit at depth
      // lvl and targets v at depth lvl-1, so the parallel phase's
      // bc[w] += delta_w writes (each w appears once per level) and
      // delta_acc[w] / sigma / depth reads never alias another
      // chunk's work; each per-edge contribution sigma[v]*coeff is a
      // pure product of advance-stable values. The delta_acc[v]
      // accumulations — the only cross-w mutation — are logged and
      // replayed in chunk order, i.e. the sequential loop's exact
      // floating-point order.
      auto& chunks = core::detail::ensure_chunks(s.ctx, n_chunks);
      pool->run_chunks(n_chunks, [&](std::size_t c) {
        core::AdvanceChunk& ch = chunks[c];
        const std::size_t b =
            util::ThreadPool::chunk_begin(level.size(), n_chunks, c);
        const std::size_t e =
            util::ThreadPool::chunk_begin(level.size(), n_chunks, c + 1);
        for (std::size_t i = b; i < e; ++i) {
          const VertexT w = level[i];
          const double delta_w = d.delta_acc[w];
          d.bc[w] += delta_w;
          const double coeff = (1.0 + delta_w) / d.sigma[w];
          const auto [begin, end] = g.edge_range(w);
          for (SizeT e2 = begin; e2 < end; ++e2) {
            const VertexT v = g.col_indices[e2];
            if (d.depth[v] + 1 == d.depth[w]) {
              ch.verts.push_back(v);
              ch.values.push_back(d.sigma[v] * coeff);
            }
          }
          ch.work += end - begin;
        }
      });
      for (std::size_t c = 0; c < n_chunks; ++c) {
        const core::AdvanceChunk& ch = chunks[c];
        for (std::size_t i = 0; i < ch.verts.size(); ++i) {
          d.delta_acc[ch.verts[i]] += ch.values[i];
        }
        edge_work += ch.work;
      }
    }
    s.device->add_kernel_cost(edge_work, level.size(), 1, 1.0, "bc_backward");
  }
  s.frontier.request_output(0);
  s.frontier.commit_output(0);
}

// Pipeline note: the forward phase pushes TWO messages to each peer
// (kSigmaPartial, then the kFinalizedLevel broadcast), so no peer's
// handshake may be signaled after the first push — the enactor's
// post-communicate backfill publishes each peer's handshake once all
// pushes have landed, which is the conservative correct schedule.
void BcEnactor::communicate(Slice& s) {
  if (phase_ == Phase::kForward) {
    communicate_forward(s);
  } else {
    communicate_backward(s);
  }
}

void BcEnactor::communicate_forward(Slice& s) {
  BcProblem::DataSlice& d = bc_problem_.data(s.gpu);
  const int n = num_gpus();
  core::Frontier& frontier = s.frontier;
  const SizeT out_items = frontier.output_size();

  if (n == 1) {
    frontier.swap();
    return;
  }

  // (a) Selective sigma partials for remote-discovered vertices; the
  // flat route pass compacts the local sub-frontier in place and
  // scatters remote vertices into per-peer buckets, then one pooled
  // message per peer.
  route_output_frontier(s);
  for (int peer = 0; peer < n; ++peer) {
    const std::span<const VertexT> sources = peer_bucket(s, peer);
    if (peer == s.gpu || sources.empty()) continue;
    core::Message msg = bus().acquire();
    msg.tag = kSigmaPartial;
    msg.set_layout(0, 1, sources.size());
    const auto sigma_out = msg.value_slot(0);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const VertexT v = sources[i];
      msg.vertices[i] = v;  // duplicate-all: global ID
      sigma_out[i] = static_cast<ValueT>(d.sigma_acc[v]);
      d.sigma_acc[v] = 0;  // partial handed off
    }
    encode_for_wire(s, msg);
    bus().push(s.gpu, peer, std::move(msg));
  }

  // (b) Broadcast this level's finalized (vertex, sigma) pairs so every
  // replica has authoritative depth and sigma for the backward pass.
  // Package once into the slice prototype, stamp a pooled copy per peer.
  const VertexT level = static_cast<VertexT>(iteration());
  if (level < d.levels.size() && !d.levels[level].empty()) {
    const auto& lvl = d.levels[level];
    core::Message& proto = s.broadcast_proto;
    proto.recycle();
    proto.tag = kFinalizedLevel;
    proto.set_layout(0, 1, lvl.size());
    const auto sigma_out = proto.value_slot(0);
    for (std::size_t i = 0; i < lvl.size(); ++i) {
      proto.vertices[i] = lvl[i];
      sigma_out[i] = static_cast<ValueT>(d.sigma[lvl[i]]);
    }
    // One encode kernel covers every peer's copy (assign_from clones
    // the encoded bytes), mirroring split_frontier_and_push's
    // broadcast path.
    encode_for_wire(s, proto);
    for (int peer = 0; peer < n; ++peer) {
      if (peer == s.gpu) continue;
      core::Message msg = bus().acquire();
      msg.assign_from(proto);
      bus().push(s.gpu, peer, std::move(msg));
    }
  }

  s.device->add_kernel_cost(0, out_items, 1, 1.0, "bc_package");
  frontier.swap();
}

void BcEnactor::communicate_backward(Slice& s) {
  BcProblem::DataSlice& d = bc_problem_.data(s.gpu);
  const int n = num_gpus();
  if (n == 1) {
    s.frontier.swap();
    return;
  }
  // Selective delta partials for proxy parents touched this level,
  // routed through the slice's flat per-peer buckets.
  route_items(s, d.border, [&](VertexT p) { return d.delta_acc[p] != 0; });
  for (int peer = 0; peer < n; ++peer) {
    const std::span<const VertexT> sources = peer_bucket(s, peer);
    if (peer == s.gpu || sources.empty()) continue;
    core::Message msg = bus().acquire();
    msg.tag = kDeltaPartial;
    msg.set_layout(0, 1, sources.size());
    const auto delta_out = msg.value_slot(0);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const VertexT p = sources[i];
      msg.vertices[i] = p;
      delta_out[i] = static_cast<ValueT>(d.delta_acc[p]);
      d.delta_acc[p] = 0;
    }
    encode_for_wire(s, msg);
    bus().push(s.gpu, peer, std::move(msg));
  }
  s.device->add_kernel_cost(0, d.border.size(), 1, 1.0, "bc_package");
  s.frontier.swap();
}

void BcEnactor::expand_incoming(Slice& s, const core::Message& msg) {
  BcProblem::DataSlice& d = bc_problem_.data(s.gpu);
  const auto values_in = msg.value_slot(0);
  switch (msg.tag) {
    case kSigmaPartial: {
      const VertexT next_level = static_cast<VertexT>(iteration()) + 1;
      for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
        const VertexT v = msg.vertices[i];
        if (d.depth[v] == kInvalidVertex) {
          d.depth[v] = next_level;
          s.frontier.append_input(v);
        } else if (d.depth[v] != next_level) {
          continue;  // not a shortest path (stale replica on sender)
        }
        d.sigma_acc[v] += values_in[i];
      }
      break;
    }
    case kFinalizedLevel: {
      // Authoritative depth/sigma for the sender's hosted vertices.
      const VertexT level = static_cast<VertexT>(iteration());
      for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
        const VertexT v = msg.vertices[i];
        d.depth[v] = level;
        d.sigma[v] = values_in[i];
      }
      break;
    }
    case kDeltaPartial: {
      for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
        d.delta_acc[msg.vertices[i]] += values_in[i];
      }
      break;
    }
    default:
      MGG_ASSERT(false, "unknown BC message tag");
  }
}

bool BcEnactor::converged(bool all_frontiers_empty, std::uint64_t) {
  if (phase_ == Phase::kForward) {
    if (!all_frontiers_empty) return false;
    // Forward done: find the deepest populated level across GPUs and
    // start the backward sweep there.
    VertexT max_level = 0;
    for (int gpu = 0; gpu < num_gpus(); ++gpu) {
      const auto& levels = bc_problem_.data(gpu).levels;
      for (std::size_t l = 0; l < levels.size(); ++l) {
        if (!levels[l].empty()) {
          max_level = std::max(max_level, static_cast<VertexT>(l));
        }
      }
    }
    if (max_level == 0) return true;  // isolated source
    phase_ = Phase::kBackward;
    current_level_ = max_level;
    return false;
  }
  // Backward: one level per iteration, down to level 1.
  if (current_level_ <= 1) return true;
  --current_level_;
  return false;
}

BcResult run_bc(const graph::Graph& g, vgpu::Machine& machine,
                core::Config config, std::vector<VertexT> sources) {
  config.duplication = part::Duplication::kAll;

  if (sources.empty()) {
    sources.resize(g.num_vertices);
    for (VertexT v = 0; v < g.num_vertices; ++v) sources[v] = v;
  }

  return run_with_degrade(machine, config, [&](const core::Config& cfg) {
    BcProblem problem;
    problem.init(g, machine, cfg);
    BcEnactor enactor(problem);

    BcResult result;
    for (const VertexT src : sources) {
      enactor.reset(src);
      result.stats = enactor.enact();
      result.total_iterations += result.stats.iterations;
    }
    auto raw = gather_vertex_values<double>(
        problem.partitioned(),
        [&](int gpu, VertexT lv) { return problem.data(gpu).bc[lv]; });
    result.bc.resize(raw.size());
    for (std::size_t v = 0; v < raw.size(); ++v) {
      // Undirected graphs count each path twice.
      result.bc[v] = static_cast<ValueT>(raw[v] / 2.0);
    }
    return result;
  });
}

}  // namespace mgg::prim
