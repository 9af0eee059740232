#include "primitives/cc.hpp"

#include <algorithm>
#include <set>

#include "primitives/common.hpp"
#include "util/error.hpp"

namespace mgg::prim {

void CcProblem::init_data_slice(int gpu) {
  MGG_REQUIRE(config().duplication == part::Duplication::kAll,
              "CC requires duplicate-all (pointer jumping indexes the "
              "full component array)");
  MGG_REQUIRE(config().comm == core::CommStrategy::kBroadcast,
              "CC requires broadcast (component updates jump beyond "
              "1-hop neighborhoods)");
  if (slices_.empty()) slices_.resize(num_gpus());
  DataSlice& d = slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  d.comp.set_allocator(&device(gpu).memory());
  d.comp.allocate(s.num_total());
  d.changed.assign(s.num_total(), 0);
}

void CcProblem::reset() {
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    DataSlice& d = slices_[gpu];
    for (VertexT v = 0; v < d.comp.size(); ++v) d.comp[v] = v;
    std::fill(d.changed.begin(), d.changed.end(), 0);
  }
}

void CcEnactor::reset() {
  cc_problem_.reset();
  reset_frontiers();
  // CC's core scans all local edges regardless of the frontier; no
  // seeding is needed. The frontier only carries change notifications.
}

void CcEnactor::iteration_core(Slice& s) {
  CcProblem::DataSlice& d = cc_problem_.data(s.gpu);
  const graph::Graph& g = s.sub->csr;
  const part::SubGraph& sub = *s.sub;
  std::fill(d.changed.begin(), d.changed.end(), 0);

  // Hooking: each local edge pulls the larger component ID down to the
  // smaller. Only hosted vertices have edges (edge-cut distribution).
  for (VertexT u = 0; u < sub.num_total(); ++u) {
    const auto [begin, end] = g.edge_range(u);
    for (SizeT e = begin; e < end; ++e) {
      const VertexT v = g.col_indices[e];
      const VertexT cu = d.comp[u];
      const VertexT cv = d.comp[v];
      if (cu < cv) {
        d.comp[v] = cu;
        d.changed[v] = 1;
      } else if (cv < cu) {
        d.comp[u] = cv;
        d.changed[u] = 1;
      }
    }
  }
  s.device->add_kernel_cost(g.num_edges, 0, 1, "cc_hook");

  // Pointer jumping: full path compression. comp IDs are global vertex
  // IDs, valid indices everywhere thanks to duplicate-all.
  std::uint64_t jump_work = 0;
  for (VertexT v = 0; v < sub.num_total(); ++v) {
    VertexT root = d.comp[v];
    while (d.comp[root] != root) {
      root = d.comp[root];
      ++jump_work;
    }
    if (d.comp[v] != root) {
      d.comp[v] = root;
      d.changed[v] = 1;
    }
  }
  s.device->add_kernel_cost(0, sub.num_total() + jump_work, 1, "cc_jump");

  // The output frontier is the changed-vertex set (broadcast payload).
  SizeT changed_count = 0;
  for (VertexT v = 0; v < sub.num_total(); ++v) {
    if (d.changed[v]) ++changed_count;
  }
  VertexT* out = s.frontier.request_output(changed_count);
  SizeT k = 0;
  for (VertexT v = 0; v < sub.num_total(); ++v) {
    if (d.changed[v]) out[k++] = v;
  }
  s.frontier.commit_output(changed_count);
  s.device->add_kernel_cost(0, sub.num_total(), 1, "cc_changed");
}

void CcEnactor::fill_vertex_associates(Slice& s, int /*slot*/,
                                       std::span<const VertexT> sources,
                                       VertexT* out) {
  const auto& comp = cc_problem_.data(s.gpu).comp;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = comp[sources[i]];
  }
}

void CcEnactor::expand_incoming(Slice& s, const core::Message& msg) {
  // Combiner: keep the minimum component ID; changed vertices keep the
  // iteration alive so the lower label can propagate locally.
  CcProblem::DataSlice& d = cc_problem_.data(s.gpu);
  const auto comp_in = msg.vertex_slot(0);
  for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
    const VertexT v = msg.vertices[i];
    const VertexT received = comp_in[i];
    if (received < d.comp[v]) {
      d.comp[v] = received;
      s.frontier.append_input(v);
    }
  }
}

CcResult run_cc(const graph::Graph& g, vgpu::Machine& machine,
                core::Config config) {
  // Fixed algorithmic choices (see class comment).
  config.duplication = part::Duplication::kAll;
  config.comm = core::CommStrategy::kBroadcast;

  return run_with_degrade(machine, config, [&](const core::Config& cfg) {
    CcProblem problem;
    problem.init(g, machine, cfg);
    CcEnactor enactor(problem);
    enactor.reset();

    CcResult result;
    result.stats = enactor.enact();
    result.comp = gather_vertex_values<VertexT>(
        problem.partitioned(),
        [&](int gpu, VertexT lv) { return problem.data(gpu).comp[lv]; });
    std::set<VertexT> roots(result.comp.begin(), result.comp.end());
    result.num_components = static_cast<VertexT>(roots.size());
    return result;
  });
}

}  // namespace mgg::prim
