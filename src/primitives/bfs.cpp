#include "primitives/bfs.hpp"

#include "primitives/common.hpp"
#include "util/error.hpp"

namespace mgg::prim {

void BfsProblem::init_data_slice(int gpu) {
  if (slices_.empty()) slices_.resize(num_gpus());
  DataSlice& d = slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  d.labels.set_allocator(&device(gpu).memory());
  d.labels.allocate(s.num_total());
  if (config().mark_predecessors) {
    d.preds.set_allocator(&device(gpu).memory());
    d.preds.allocate(s.num_total());
  }
}

void BfsProblem::reset(VertexT src) {
  MGG_REQUIRE(src < partitioned().global_vertices(), "source out of range");
  source_ = src;
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    DataSlice& d = slices_[gpu];
    d.labels.fill(kInvalidVertex);
    if (config().mark_predecessors) d.preds.fill(kInvalidVertex);
  }
  // Label the source on its host GPU (and on every GPU that has a
  // copy of it, so local advances skip it immediately).
  for_each_copy(*this, src,
                [&](int gpu, VertexT lv) { slices_[gpu].labels[lv] = 0; });
}

void BfsEnactor::reset(VertexT src) {
  bfs_problem_.reset(src);
  reset_frontiers();
  const auto [host, host_local] = bfs_problem_.locate(src);
  const VertexT seed[] = {host_local};
  seed_frontier(host, seed);
}

void BfsEnactor::iteration_core(Slice& s) {
  BfsProblem::DataSlice& d = bfs_problem_.data(s.gpu);
  const bool mark_preds = bfs_problem_.config().mark_predecessors;
  const VertexT next_label = static_cast<VertexT>(iteration()) + 1;
  const auto& local_to_global = s.sub->local_to_global;

  // Split test/commit form: the candidate test (an unvisited
  // destination) is pure over the labels at advance start, so the
  // edge sweep can run on the host pool; the commit replay keeps the
  // first-discoverer-wins predecessor choice of the sequential loop.
  core::advance_filter(
      s.ctx,
      [&](VertexT, VertexT dst, SizeT) {
        return d.labels[dst] == kInvalidVertex;
      },
      [&](VertexT src, VertexT dst, SizeT) {
        if (d.labels[dst] != kInvalidVertex) return false;
        d.labels[dst] = next_label;
        if (mark_preds) d.preds[dst] = local_to_global[src];
        return true;
      });
}

int BfsEnactor::num_vertex_associates() const {
  return bfs_problem_.config().mark_predecessors ? 1 : 0;
}

void BfsEnactor::fill_vertex_associates(Slice& s, int /*slot*/,
                                        std::span<const VertexT> sources,
                                        VertexT* out) {
  const auto& preds = bfs_problem_.data(s.gpu).preds;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = preds[sources[i]];
  }
}

void BfsEnactor::expand_incoming(Slice& s, const core::Message& msg) {
  BfsProblem::DataSlice& d = bfs_problem_.data(s.gpu);
  const bool mark_preds = bfs_problem_.config().mark_predecessors;
  const VertexT label = static_cast<VertexT>(iteration()) + 1;
  const auto preds_in =
      mark_preds ? msg.vertex_slot(0) : std::span<const VertexT>{};
  for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
    const VertexT v = msg.vertices[i];
    if (d.labels[v] != kInvalidVertex) continue;  // already visited
    d.labels[v] = label;
    if (mark_preds) d.preds[v] = preds_in[i];
    s.frontier.append_input(v);
  }
}

BfsResult run_bfs(const graph::Graph& g, VertexT src, vgpu::Machine& machine,
                  const core::Config& config) {
  return run_with_degrade(machine, config, [&](const core::Config& cfg) {
    BfsProblem problem;
    problem.init(g, machine, cfg);
    BfsEnactor enactor(problem);
    enactor.reset(src);

    BfsResult result;
    result.stats = enactor.enact();
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
