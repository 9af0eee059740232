#include "primitives/multi_source.hpp"

#include <bit>
#include <limits>
#include <utility>

#include "primitives/common.hpp"
#include "util/error.hpp"

namespace mgg::prim {

namespace {

constexpr ValueT kInf = std::numeric_limits<ValueT>::infinity();

/// Visit every local copy of global vertex `v` as (gpu, local_id):
/// the host copy plus duplicate-all replicas or 1-hop proxies,
/// mirroring BfsProblem::reset's placement scan.
template <typename Fn>
void for_each_copy(const core::ProblemBase& p, VertexT v, Fn&& fn) {
  const auto [host, host_local] = p.locate(v);
  for (int gpu = 0; gpu < p.num_gpus(); ++gpu) {
    if (gpu == host) {
      fn(gpu, host_local);
      continue;
    }
    const part::SubGraph& s = p.sub(gpu);
    if (p.config().duplication == part::Duplication::kAll) {
      fn(gpu, v);
    } else {
      // Proxies are the tail of the local numbering; linear scan is
      // fine at reset time.
      for (VertexT lv = s.num_local; lv < s.num_total(); ++lv) {
        if (s.local_to_global[lv] == v) {
          fn(gpu, lv);
          break;
        }
      }
    }
  }
}

std::uint64_t join_mask_word(VertexT lo, VertexT hi) {
  return static_cast<std::uint64_t>(lo) |
         (static_cast<std::uint64_t>(hi) << 32);
}

}  // namespace

// ------------------------------------------------------------------
// MsProblemBase
// ------------------------------------------------------------------

MsProblemBase::MsProblemBase(int width) : width_(width) {
  MGG_REQUIRE(width >= 1 && width <= kMaxBatchWidth,
              "batch width must be in [1, 64]");
}

void MsProblemBase::init_mask_slice(int gpu) {
  if (mask_slices_.empty()) mask_slices_.resize(num_gpus());
  MaskSlice& m = mask_slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  for (auto* a : {&m.mask, &m.update_cur, &m.update_next}) {
    a->set_allocator(&device(gpu).memory());
    a->allocate(s.num_total());
  }
}

void MsProblemBase::reset_masks(
    std::span<const VertexT> srcs,
    const std::function<void(int slot, int gpu, VertexT lv)>& per_copy) {
  MGG_REQUIRE(!srcs.empty() && srcs.size() <= static_cast<std::size_t>(width_),
              "batch must hold 1..width sources");
  for (const VertexT src : srcs) {
    MGG_REQUIRE(src < partitioned().global_vertices(),
                "source out of range");
  }
  sources_.assign(srcs.begin(), srcs.end());
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    MaskSlice& m = mask_slices_[gpu];
    m.mask.fill(0);
    m.update_cur.fill(0);
    m.update_next.fill(0);
  }
  // Slot bits land in update_next: the enactor's begin_iteration(0)
  // swaps them into update_cur, which iteration 0's advance reads.
  for (int slot = 0; slot < static_cast<int>(srcs.size()); ++slot) {
    const std::uint64_t bit = std::uint64_t{1} << slot;
    for_each_copy(*this, srcs[slot], [&](int gpu, VertexT lv) {
      MaskSlice& m = mask_slices_[gpu];
      m.mask[lv] |= bit;
      m.update_next[lv] |= bit;
      per_copy(slot, gpu, lv);
    });
  }
}

std::vector<std::vector<VertexT>> MsProblemBase::seed_lists() const {
  std::vector<std::vector<VertexT>> seeds(num_gpus());
  for (const VertexT src : sources_) {
    const auto [host, host_local] = locate(src);
    auto& list = seeds[host];
    bool present = false;
    for (const VertexT v : list) {
      if (v == host_local) {
        present = true;
        break;
      }
    }
    if (!present) list.push_back(host_local);
  }
  return seeds;
}

// ------------------------------------------------------------------
// MsBfs
// ------------------------------------------------------------------

void MsBfsProblem::init_data_slice(int gpu) {
  if (slices_.empty()) slices_.resize(num_gpus());
  init_mask_slice(gpu);
  DataSlice& d = slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  d.depth.set_allocator(&device(gpu).memory());
  d.depth.allocate(static_cast<std::size_t>(width()) * s.num_total());
}

void MsBfsProblem::reset(std::span<const VertexT> srcs) {
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    slices_[gpu].depth.fill(kInvalidVertex);
  }
  reset_masks(srcs, [&](int slot, int gpu, VertexT lv) {
    const std::size_t stride = sub(gpu).num_total();
    slices_[gpu].depth[static_cast<std::size_t>(slot) * stride + lv] = 0;
  });
}

void MsBfsEnactor::reset(std::span<const VertexT> srcs) {
  ms_problem_.reset(srcs);
  reset_frontiers();
  const auto seeds = ms_problem_.seed_lists();
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    if (!seeds[gpu].empty()) seed_frontier(gpu, seeds[gpu]);
  }
}

void MsBfsEnactor::begin_iteration(std::uint64_t /*iteration*/) {
  // Freeze this iteration's update words and clear the next — the
  // level-synchronous swap that makes the two-phase advance's test
  // pure. Runs single-threaded between supersteps; the clear is one
  // memset-shaped kernel per GPU, charged to the opening superstep.
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    MaskSlice& m = ms_problem_.mask_slice(gpu);
    std::swap(m.update_cur, m.update_next);
    m.update_next.fill(0);
    ms_problem_.device(gpu).add_kernel_cost(
        0, ms_problem_.sub(gpu).num_total(), 1, "ms_update_clear");
  }
}

void MsBfsEnactor::iteration_core(Slice& s) {
  MaskSlice& m = ms_problem_.mask_slice(s.gpu);
  MsBfsProblem::DataSlice& d = ms_problem_.data(s.gpu);
  const std::size_t stride = s.sub->num_total();
  const VertexT next_label = static_cast<VertexT>(iteration()) + 1;

  // Split test/commit form, as in BFS: update_cur is frozen for the
  // whole advance and mask only grows, so a false test stays false —
  // the candidate sweep can run on the host pool. The commit re-checks
  // against the live mask and ORs in whatever is still fresh; the
  // operator dedup emits dst once per iteration no matter how many
  // edges contribute bits.
  core::advance_filter(
      s.ctx,
      [&](VertexT src, VertexT dst, SizeT) {
        return (m.update_cur[src] & ~m.mask[dst]) != 0;
      },
      [&](VertexT src, VertexT dst, SizeT) {
        std::uint64_t fresh = m.update_cur[src] & ~m.mask[dst];
        if (fresh == 0) return false;
        m.mask[dst] |= fresh;
        m.update_next[dst] |= fresh;
        while (fresh != 0) {
          const int slot = std::countr_zero(fresh);
          fresh &= fresh - 1;
          d.depth[static_cast<std::size_t>(slot) * stride + dst] = next_label;
        }
        return true;
      });
}

void MsBfsEnactor::fill_vertex_associates(Slice& s, int slot,
                                          std::span<const VertexT> sources,
                                          VertexT* out) {
  const auto& update = ms_problem_.mask_slice(s.gpu).update_next;
  const int shift = slot == 0 ? 0 : 32;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = static_cast<VertexT>(update[sources[i]] >> shift);
  }
}

void MsBfsEnactor::expand_incoming(Slice& s, const core::Message& msg) {
  MaskSlice& m = ms_problem_.mask_slice(s.gpu);
  MsBfsProblem::DataSlice& d = ms_problem_.data(s.gpu);
  const std::size_t stride = s.sub->num_total();
  const VertexT label = static_cast<VertexT>(iteration()) + 1;
  const auto lo = msg.vertex_slot(0);
  const auto hi = msg.vertex_slot(1);
  for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
    const VertexT v = msg.vertices[i];
    std::uint64_t fresh = join_mask_word(lo[i], hi[i]) & ~m.mask[v];
    if (fresh == 0) continue;  // combiner: every received bit known
    // Dedup-append invariant: a hosted vertex is already queued for
    // the next input frontier iff its update_next word is nonzero
    // (written by the local advance or an earlier sender's message).
    if (m.update_next[v] == 0) s.frontier.append_input(v);
    m.mask[v] |= fresh;
    m.update_next[v] |= fresh;
    while (fresh != 0) {
      const int slot = std::countr_zero(fresh);
      fresh &= fresh - 1;
      d.depth[static_cast<std::size_t>(slot) * stride + v] = label;
    }
  }
}

MsBfsResult run_msbfs(const graph::Graph& g, std::span<const VertexT> srcs,
                      vgpu::Machine& machine, const core::Config& config) {
  return run_with_degrade(machine, config, [&](const core::Config& cfg) {
    MsBfsProblem problem(static_cast<int>(srcs.size()));
    problem.init(g, machine, cfg);
    MsBfsEnactor enactor(problem);
    enactor.reset(srcs);

    MsBfsResult result;
    result.width = problem.width();
    result.stats = enactor.enact();
    const auto& pg = problem.partitioned();
    const std::size_t nv = pg.global_vertices();
    result.depth.resize(static_cast<std::size_t>(result.width) * nv);
    for (int slot = 0; slot < result.width; ++slot) {
      auto out = result.depth.begin() +
                 static_cast<std::ptrdiff_t>(slot * nv);
      for (VertexT v = 0; v < pg.global_vertices(); ++v) {
        const int gpu = pg.owner_of(v);
        const std::size_t stride = pg.sub(gpu).num_total();
        out[v] = problem.data(gpu).depth[static_cast<std::size_t>(slot) *
                                             stride +
                                         pg.host_local_of(v)];
      }
    }
    return result;
  });
}

// ------------------------------------------------------------------
// MsSssp
// ------------------------------------------------------------------

void MsSsspProblem::init_data_slice(int gpu) {
  if (slices_.empty()) slices_.resize(num_gpus());
  init_mask_slice(gpu);
  DataSlice& d = slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  MGG_REQUIRE(s.csr.has_values() || s.csr.num_edges == 0,
              "SSSP needs edge values");
  d.dist.set_allocator(&device(gpu).memory());
  d.dist.allocate(static_cast<std::size_t>(width()) * s.num_total());
}

void MsSsspProblem::reset(std::span<const VertexT> srcs) {
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    slices_[gpu].dist.fill(kInf);
  }
  reset_masks(srcs, [&](int slot, int gpu, VertexT lv) {
    const std::size_t stride = sub(gpu).num_total();
    slices_[gpu].dist[static_cast<std::size_t>(slot) * stride + lv] = 0;
  });
}

void MsSsspEnactor::reset(std::span<const VertexT> srcs) {
  ms_problem_.reset(srcs);
  reset_frontiers();
  const auto seeds = ms_problem_.seed_lists();
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    if (!seeds[gpu].empty()) seed_frontier(gpu, seeds[gpu]);
  }
}

void MsSsspEnactor::begin_iteration(std::uint64_t /*iteration*/) {
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    MaskSlice& m = ms_problem_.mask_slice(gpu);
    std::swap(m.update_cur, m.update_next);
    m.update_next.fill(0);
    ms_problem_.device(gpu).add_kernel_cost(
        0, ms_problem_.sub(gpu).num_total(), 1, "ms_update_clear");
  }
}

int MsSsspEnactor::num_value_associates() const {
  return ms_problem_.width();
}

void MsSsspEnactor::iteration_core(Slice& s) {
  MaskSlice& m = ms_problem_.mask_slice(s.gpu);
  MsSsspProblem::DataSlice& d = ms_problem_.data(s.gpu);
  const std::size_t stride = s.sub->num_total();
  const auto& values = s.sub->csr.edge_values;

  // Sequential single-functor form, for SSSP's reason: a slot's
  // dist[src] may improve mid-advance (src can be a dst of an earlier
  // edge), so there is no pure candidate test. Each edge relaxes only
  // the slots whose source distance changed last iteration.
  core::advance_filter(s.ctx, [&](VertexT src, VertexT dst, SizeT e) {
    std::uint64_t bits = m.update_cur[src];
    if (bits == 0) return false;  // stale proxy word; nothing to relax
    const ValueT w = values[e];
    std::uint64_t improved = 0;
    while (bits != 0) {
      const int slot = std::countr_zero(bits);
      bits &= bits - 1;
      const std::size_t base = static_cast<std::size_t>(slot) * stride;
      const ValueT candidate = d.dist[base + src] + w;
      if (candidate < d.dist[base + dst]) {
        d.dist[base + dst] = candidate;
        improved |= std::uint64_t{1} << slot;
      }
    }
    if (improved == 0) return false;
    m.mask[dst] |= improved;
    m.update_next[dst] |= improved;
    return true;
  });
}

void MsSsspEnactor::fill_vertex_associates(Slice& s, int slot,
                                           std::span<const VertexT> sources,
                                           VertexT* out) {
  const auto& update = ms_problem_.mask_slice(s.gpu).update_next;
  const int shift = slot == 0 ? 0 : 32;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = static_cast<VertexT>(update[sources[i]] >> shift);
  }
}

void MsSsspEnactor::fill_value_associates(Slice& s, int slot,
                                          std::span<const VertexT> sources,
                                          ValueT* out) {
  const auto& dist = ms_problem_.data(s.gpu).dist;
  const std::size_t base =
      static_cast<std::size_t>(slot) * s.sub->num_total();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = dist[base + sources[i]];
  }
}

void MsSsspEnactor::expand_incoming(Slice& s, const core::Message& msg) {
  MaskSlice& m = ms_problem_.mask_slice(s.gpu);
  MsSsspProblem::DataSlice& d = ms_problem_.data(s.gpu);
  const std::size_t stride = s.sub->num_total();
  const auto lo = msg.vertex_slot(0);
  const auto hi = msg.vertex_slot(1);
  for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
    const VertexT v = msg.vertices[i];
    std::uint64_t bits = join_mask_word(lo[i], hi[i]);
    std::uint64_t improved = 0;
    while (bits != 0) {
      const int slot = std::countr_zero(bits);
      bits &= bits - 1;
      const ValueT received = msg.value_slot(slot)[i];
      const std::size_t base = static_cast<std::size_t>(slot) * stride;
      if (received < d.dist[base + v]) {  // combiner: take the minimum
        d.dist[base + v] = received;
        improved |= std::uint64_t{1} << slot;
      }
    }
    if (improved == 0) continue;
    if (m.update_next[v] == 0) s.frontier.append_input(v);
    m.mask[v] |= improved;
    m.update_next[v] |= improved;
  }
}

MsSsspResult run_msssp(const graph::Graph& g, std::span<const VertexT> srcs,
                       vgpu::Machine& machine, const core::Config& config) {
  return run_with_degrade(machine, config, [&](const core::Config& cfg) {
    MsSsspProblem problem(static_cast<int>(srcs.size()));
    problem.init(g, machine, cfg);
    MsSsspEnactor enactor(problem);
    enactor.reset(srcs);

    MsSsspResult result;
    result.width = problem.width();
    result.stats = enactor.enact();
    const auto& pg = problem.partitioned();
    const std::size_t nv = pg.global_vertices();
    result.dist.resize(static_cast<std::size_t>(result.width) * nv);
    for (int slot = 0; slot < result.width; ++slot) {
      auto out = result.dist.begin() +
                 static_cast<std::ptrdiff_t>(slot * nv);
      for (VertexT v = 0; v < pg.global_vertices(); ++v) {
        const int gpu = pg.owner_of(v);
        const std::size_t stride = pg.sub(gpu).num_total();
        out[v] = problem.data(gpu).dist[static_cast<std::size_t>(slot) *
                                            stride +
                                        pg.host_local_of(v)];
      }
    }
    return result;
  });
}

}  // namespace mgg::prim
