#include "primitives/sssp.hpp"

#include <limits>

#include "primitives/common.hpp"
#include "util/error.hpp"

namespace mgg::prim {

namespace {
constexpr ValueT kInf = std::numeric_limits<ValueT>::infinity();
}

void SsspProblem::init_data_slice(int gpu) {
  if (slices_.empty()) slices_.resize(num_gpus());
  DataSlice& d = slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  MGG_REQUIRE(s.csr.has_values() || s.csr.num_edges == 0,
              "SSSP needs edge values");
  d.dist.set_allocator(&device(gpu).memory());
  d.dist.allocate(s.num_total());
  if (config().mark_predecessors) {
    d.preds.set_allocator(&device(gpu).memory());
    d.preds.allocate(s.num_total());
  }
}

void SsspProblem::reset(VertexT src) {
  MGG_REQUIRE(src < partitioned().global_vertices(), "source out of range");
  source_ = src;
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    DataSlice& d = slices_[gpu];
    d.dist.fill(kInf);
    if (config().mark_predecessors) d.preds.fill(kInvalidVertex);
  }
  // The host copy and every local copy (proxies / duplicate-all
  // replicas) start at distance 0.
  for_each_copy(*this, src,
                [&](int gpu, VertexT lv) { slices_[gpu].dist[lv] = 0; });
}

void SsspEnactor::reset(VertexT src) {
  sssp_problem_.reset(src);
  reset_frontiers();
  const auto [host, host_local] = sssp_problem_.locate(src);
  const VertexT seed[] = {host_local};
  seed_frontier(host, seed);
}

void SsspEnactor::iteration_core(Slice& s) {
  SsspProblem::DataSlice& d = sssp_problem_.data(s.gpu);
  const bool mark_preds = sssp_problem_.config().mark_predecessors;
  const auto& values = s.sub->csr.edge_values;
  const auto& local_to_global = s.sub->local_to_global;

  // Stays on the sequential single-functor form deliberately: the
  // relaxation reads d.dist[src], which earlier edges of the *same*
  // advance may have lowered (src can also be a dst this iteration),
  // so there is no pure candidate test — the (test, op) two-phase
  // form's contract cannot be met without changing which relaxations
  // land. Host parallelism for SSSP comes from the surrounding route/
  // packaging/wire stages instead.
  core::advance_filter(s.ctx, [&](VertexT src, VertexT dst, SizeT e) {
    const ValueT candidate = d.dist[src] + values[e];
    if (candidate >= d.dist[dst]) return false;
    d.dist[dst] = candidate;
    if (mark_preds) d.preds[dst] = local_to_global[src];
    return true;
  });
}

int SsspEnactor::num_vertex_associates() const {
  return sssp_problem_.config().mark_predecessors ? 1 : 0;
}

void SsspEnactor::fill_vertex_associates(Slice& s, int /*slot*/,
                                         std::span<const VertexT> sources,
                                         VertexT* out) {
  const auto& preds = sssp_problem_.data(s.gpu).preds;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = preds[sources[i]];
  }
}

void SsspEnactor::fill_value_associates(Slice& s, int /*slot*/,
                                        std::span<const VertexT> sources,
                                        ValueT* out) {
  const auto& dist = sssp_problem_.data(s.gpu).dist;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = dist[sources[i]];
  }
}

void SsspEnactor::expand_incoming(Slice& s, const core::Message& msg) {
  SsspProblem::DataSlice& d = sssp_problem_.data(s.gpu);
  const bool mark_preds = sssp_problem_.config().mark_predecessors;
  const auto dist_in = msg.value_slot(0);
  const auto preds_in =
      mark_preds ? msg.vertex_slot(0) : std::span<const VertexT>{};
  for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
    const VertexT v = msg.vertices[i];
    const ValueT received = dist_in[i];
    if (received >= d.dist[v]) continue;  // combiner: take the minimum
    d.dist[v] = received;
    if (mark_preds) d.preds[v] = preds_in[i];
    s.frontier.append_input(v);
  }
}

SsspResult run_sssp(const graph::Graph& g, VertexT src,
                    vgpu::Machine& machine, const core::Config& config) {
  return run_with_degrade(machine, config, [&](const core::Config& cfg) {
    SsspProblem problem;
    problem.init(g, machine, cfg);
    SsspEnactor enactor(problem);
    enactor.reset(src);

    SsspResult result;
    result.stats = enactor.enact();
    result.dist = gather_vertex_values<ValueT>(
        problem.partitioned(),
        [&](int gpu, VertexT lv) { return problem.data(gpu).dist[lv]; });
    if (cfg.mark_predecessors) {
      result.preds = gather_vertex_values<VertexT>(
          problem.partitioned(),
          [&](int gpu, VertexT lv) { return problem.data(gpu).preds[lv]; });
    }
    return result;
  });
}

}  // namespace mgg::prim
