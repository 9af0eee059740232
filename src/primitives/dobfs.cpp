#include "primitives/dobfs.hpp"

#include <atomic>

#include "primitives/common.hpp"
#include "util/error.hpp"

namespace mgg::prim {

void DobfsProblem::init_data_slice(int gpu) {
  MGG_REQUIRE(config().duplication == part::Duplication::kAll,
              "DOBFS requires duplicate-all (Algorithm 2)");
  MGG_REQUIRE(config().comm == core::CommStrategy::kBroadcast,
              "DOBFS requires broadcast (the next iteration may use "
              "either direction)");
  if (slices_.empty()) slices_.resize(num_gpus());
  DataSlice& d = slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  d.labels.set_allocator(&device(gpu).memory());
  d.labels.allocate(s.num_total());
  if (config().mark_predecessors) {
    d.preds.set_allocator(&device(gpu).memory());
    d.preds.allocate(s.num_total());
  }
  d.unvisited.set_allocator(&device(gpu).memory());
  d.unvisited.allocate(s.num_local);
}

void DobfsProblem::reset(VertexT src) {
  MGG_REQUIRE(src < partitioned().global_vertices(), "source out of range");
  source_ = src;
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    DataSlice& d = slices_[gpu];
    d.labels.fill(kInvalidVertex);
    if (config().mark_predecessors) d.preds.fill(kInvalidVertex);
    d.num_unvisited = 0;
    // Duplicate-all: the source's replica is labeled on every GPU.
    d.labels[src] = 0;
  }
}

void DobfsEnactor::reset(VertexT src) {
  dobfs_problem_.reset(src);
  reset_frontiers();
  direction_ = Direction::kForward;
  switched_to_backward_ = false;
  switches_ = 0;
  visited_hosted_.assign(num_gpus(), 0);
  needs_rebuild_.assign(num_gpus(), 0);
  const auto [host, host_local] = dobfs_problem_.locate(src);
  visited_hosted_[host] = 1;
  const VertexT seed[] = {host_local};
  seed_frontier(host, seed);
}

void DobfsEnactor::begin_iteration(std::uint64_t iteration) {
  // Global direction decision (§VI-A), single-threaded between
  // supersteps, using only already-available inputs.
  const auto& pg = dobfs_problem_.partitioned();
  const double total_v = static_cast<double>(pg.global_vertices());
  const double total_e = static_cast<double>(pg.global_edges());

  double q = 0;  // |Q|: current frontier across GPUs
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    q += static_cast<double>(slice(gpu).frontier.input_size());
  }
  double p = 0;  // |P|: visited vertices
  for (const auto count : visited_hosted_) p += static_cast<double>(count);
  const double u = total_v - p;  // |U|: unvisited vertices

  const double fv = q * total_e / total_v;
  const double bv = p > 0 ? u * total_v / p : 0;

  if (direction_ == Direction::kForward && !switched_to_backward_ &&
      iteration > 0 && u > 0 && fv > bv * options_.do_a) {
    direction_ = Direction::kBackward;
    switched_to_backward_ = true;  // only one f->b switch is allowed
    ++switches_;
    // Each GPU must scan for its unvisited vertices before pulling.
    needs_rebuild_.assign(num_gpus(), 1);
  } else if (direction_ == Direction::kBackward &&
             fv < bv * options_.do_b) {
    direction_ = Direction::kForward;
    ++switches_;
  }
}

void DobfsEnactor::iteration_core(Slice& s) {
  if (direction_ == Direction::kForward) {
    core_forward(s);
  } else {
    core_backward(s);
  }
}

void DobfsEnactor::core_forward(Slice& s) {
  DobfsProblem::DataSlice& d = dobfs_problem_.data(s.gpu);
  const bool mark_preds = dobfs_problem_.config().mark_predecessors;
  const VertexT next_label = static_cast<VertexT>(iteration()) + 1;
  const part::SubGraph& sub = *s.sub;
  std::uint64_t discovered_hosted = 0;

  // Split test/commit form (see BfsEnactor::iteration_core): the
  // unvisited test is pure, so the edge sweep parallelizes; the
  // commit replay (and with it discovered_hosted) stays sequential
  // and bit-identical to the historical loop.
  core::advance_filter(
      s.ctx,
      [&](VertexT, VertexT dst, SizeT) {
        return d.labels[dst] == kInvalidVertex;
      },
      [&](VertexT src, VertexT dst, SizeT) {
        if (d.labels[dst] != kInvalidVertex) return false;
        d.labels[dst] = next_label;
        if (mark_preds) d.preds[dst] = src;  // duplicate-all: local == global
        if (sub.is_hosted(dst)) ++discovered_hosted;
        return true;
      });
  visited_hosted_[s.gpu] += discovered_hosted;
}

void DobfsEnactor::core_backward(Slice& s) {
  DobfsProblem::DataSlice& d = dobfs_problem_.data(s.gpu);
  const bool mark_preds = dobfs_problem_.config().mark_predecessors;
  const VertexT frontier_label = static_cast<VertexT>(iteration());
  const VertexT next_label = frontier_label + 1;
  const part::SubGraph& sub = *s.sub;

  if (needs_rebuild_[s.gpu]) {
    // The one-time unvisited scan the paper pays on the f->b switch.
    needs_rebuild_[s.gpu] = false;
    SizeT count = 0;
    for (VertexT v = 0; v < sub.num_total(); ++v) {
      if (sub.is_hosted(v) && d.labels[v] == kInvalidVertex) {
        d.unvisited[count++] = v;
      }
    }
    d.num_unvisited = count;
    s.device->add_kernel_cost(0, sub.num_total(), 1, "dobfs_rebuild");
  }

  const std::span<const VertexT> candidates{
      d.unvisited.data(), static_cast<std::size_t>(d.num_unvisited)};
  // The pull runs candidates in parallel on the host pool, and a
  // candidate can simultaneously be another candidate's potential
  // parent — so label reads/writes go through relaxed atomic_refs.
  // The *decision* is timing-independent either way: a concurrently
  // committed candidate moves kInvalidVertex -> next_label, and
  // neither value equals frontier_label, so the parent test gives the
  // same answer whichever value the load observes.
  const SizeT produced = core::advance_pull(
      s.ctx, candidates, [&](VertexT v, VertexT parent, SizeT) {
        const VertexT parent_label =
            std::atomic_ref<VertexT>(d.labels[parent])
                .load(std::memory_order_relaxed);
        if (parent_label != frontier_label) return false;
        std::atomic_ref<VertexT>(d.labels[v]).store(
            next_label, std::memory_order_relaxed);
        if (mark_preds) d.preds[v] = parent;
        return true;
      });
  visited_hosted_[s.gpu] += produced;

  // Compact the unvisited list: drop everything discovered this pull
  // or by earlier broadcasts.
  SizeT keep = 0;
  for (SizeT i = 0; i < d.num_unvisited; ++i) {
    const VertexT v = d.unvisited[i];
    if (d.labels[v] == kInvalidVertex) d.unvisited[keep++] = v;
  }
  s.device->add_kernel_cost(0, d.num_unvisited, 1, "dobfs_compact");
  d.num_unvisited = keep;
}

int DobfsEnactor::num_vertex_associates() const {
  return dobfs_problem_.config().mark_predecessors ? 1 : 0;
}

void DobfsEnactor::fill_vertex_associates(Slice& s, int /*slot*/,
                                          std::span<const VertexT> sources,
                                          VertexT* out) {
  const auto& preds = dobfs_problem_.data(s.gpu).preds;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = preds[sources[i]];
  }
}

void DobfsEnactor::expand_incoming(Slice& s, const core::Message& msg) {
  DobfsProblem::DataSlice& d = dobfs_problem_.data(s.gpu);
  const bool mark_preds = dobfs_problem_.config().mark_predecessors;
  const VertexT label = static_cast<VertexT>(iteration()) + 1;
  const part::SubGraph& sub = *s.sub;
  const auto preds_in =
      mark_preds ? msg.vertex_slot(0) : std::span<const VertexT>{};
  for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
    const VertexT v = msg.vertices[i];
    if (d.labels[v] != kInvalidVertex) continue;
    d.labels[v] = label;
    if (mark_preds) d.preds[v] = preds_in[i];
    if (sub.is_hosted(v)) {
      ++visited_hosted_[s.gpu];
      s.frontier.append_input(v);
    }
  }
}

DobfsResult run_dobfs(const graph::Graph& g, VertexT src,
                      vgpu::Machine& machine, core::Config config,
                      DobfsOptions options) {
  // Algorithm 2's fixed choices.
  config.duplication = part::Duplication::kAll;
  config.comm = core::CommStrategy::kBroadcast;

  return run_with_degrade(machine, config, [&](const core::Config& cfg) {
    DobfsProblem problem;
    problem.init(g, machine, cfg);
    DobfsEnactor enactor(problem, options);
    enactor.reset(src);

    DobfsResult result;
    result.stats = enactor.enact();
    result.direction_switches = enactor.direction_switches();
    result.labels = gather_vertex_values<VertexT>(
        problem.partitioned(),
        [&](int gpu, VertexT lv) { return problem.data(gpu).labels[lv]; });
    if (cfg.mark_predecessors) {
      result.preds = gather_vertex_values<VertexT>(
          problem.partitioned(),
          [&](int gpu, VertexT lv) { return problem.data(gpu).preds[lv]; });
    }
    return result;
  });
}

}  // namespace mgg::prim
