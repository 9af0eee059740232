#include "primitives/label_propagation.hpp"

#include <algorithm>
#include <set>

#include "primitives/common.hpp"
#include "util/error.hpp"

namespace mgg::prim {

namespace {

/// The synchronous update rule shared by the device core and the CPU
/// oracle: most frequent neighbor label, smallest label on ties,
/// reading from `current`, or the vertex's own label if it has no
/// neighbors. `scratch` is a reusable buffer of neighbor labels.
template <typename GetLabel>
VertexT most_frequent_neighbor_label(const graph::Graph& g, VertexT v,
                                     GetLabel&& label_of,
                                     std::vector<VertexT>& scratch) {
  const auto neighbors = g.neighbors(v);
  if (neighbors.empty()) return label_of(v);
  scratch.clear();
  for (const VertexT u : neighbors) scratch.push_back(label_of(u));
  std::sort(scratch.begin(), scratch.end());
  VertexT best_label = scratch[0];
  std::size_t best_count = 0;
  std::size_t i = 0;
  while (i < scratch.size()) {
    std::size_t j = i;
    while (j < scratch.size() && scratch[j] == scratch[i]) ++j;
    if (j - i > best_count) {  // strictly greater keeps smallest label
      best_count = j - i;
      best_label = scratch[i];
    }
    i = j;
  }
  return best_label;
}

}  // namespace

void LpProblem::init_data_slice(int gpu) {
  MGG_REQUIRE(config().duplication == part::Duplication::kAll,
              "LP requires duplicate-all (neighbors' labels must be "
              "locally readable)");
  MGG_REQUIRE(config().comm == core::CommStrategy::kBroadcast,
              "LP requires broadcast (every replica needs every "
              "label update)");
  if (slices_.empty()) slices_.resize(num_gpus());
  DataSlice& d = slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  d.label.set_allocator(&device(gpu).memory());
  d.label.allocate(s.num_total());
  d.hosted = hosted_vertices(s);
}

void LpProblem::reset() {
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    DataSlice& d = slices_[gpu];
    for (VertexT v = 0; v < d.label.size(); ++v) d.label[v] = v;
  }
}

void LpEnactor::reset() {
  lp_problem_.reset();
  reset_frontiers();
}

void LpEnactor::iteration_core(Slice& s) {
  LpProblem::DataSlice& d = lp_problem_.data(s.gpu);
  const graph::Graph& g = s.sub->csr;

  // Synchronous step: compute all new labels from the current ones,
  // then apply. Only hosted vertices are recomputed (their edges are
  // local and complete).
  std::vector<VertexT> scratch;
  std::vector<std::pair<VertexT, VertexT>> updates;  // (vertex, label)
  std::uint64_t edge_work = 0;
  for (const VertexT v : d.hosted) {
    const VertexT candidate = most_frequent_neighbor_label(
        g, v, [&](VertexT u) { return d.label[u]; }, scratch);
    edge_work += g.degree(v);
    if (candidate != d.label[v]) updates.emplace_back(v, candidate);
  }
  VertexT* out = s.frontier.request_output(
      static_cast<SizeT>(updates.size()));
  SizeT k = 0;
  for (const auto& [v, label] : updates) {
    d.label[v] = label;
    out[k++] = v;  // the changed set is the broadcast payload
  }
  s.frontier.commit_output(k);
  s.device->add_kernel_cost(edge_work, d.hosted.size(), 2, "lp_gather");
}

void LpEnactor::fill_vertex_associates(Slice& s, int /*slot*/,
                                       std::span<const VertexT> sources,
                                       VertexT* out) {
  const auto& label = lp_problem_.data(s.gpu).label;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = label[sources[i]];
  }
}

void LpEnactor::expand_incoming(Slice& s, const core::Message& msg) {
  // Owner-authoritative combine: the sender hosts these vertices, so
  // replicas adopt the labels verbatim. A change anywhere keeps the
  // iteration alive via the frontier.
  LpProblem::DataSlice& d = lp_problem_.data(s.gpu);
  const auto label_in = msg.vertex_slot(0);
  for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
    const VertexT v = msg.vertices[i];
    const VertexT label = label_in[i];
    if (d.label[v] != label) {
      d.label[v] = label;
      s.frontier.append_input(v);
    }
  }
}

bool LpEnactor::converged(bool all_frontiers_empty,
                          std::uint64_t iteration) {
  return all_frontiers_empty ||
         iteration >= static_cast<std::uint64_t>(options_.max_iterations);
}

LpResult run_label_propagation(const graph::Graph& g,
                               vgpu::Machine& machine, core::Config config,
                               LpOptions options) {
  config.duplication = part::Duplication::kAll;
  config.comm = core::CommStrategy::kBroadcast;

  return run_with_degrade(machine, config, [&](const core::Config& cfg) {
    LpProblem problem;
    problem.init(g, machine, cfg);
    LpEnactor enactor(problem, options);
    enactor.reset();

    LpResult result;
    result.stats = enactor.enact();
    result.label = gather_vertex_values<VertexT>(
        problem.partitioned(),
        [&](int gpu, VertexT lv) { return problem.data(gpu).label[lv]; });
    std::set<VertexT> distinct(result.label.begin(), result.label.end());
    result.num_communities = static_cast<VertexT>(distinct.size());
    return result;
  });
}

std::vector<VertexT> cpu_label_propagation(const graph::Graph& g,
                                           int max_iterations) {
  std::vector<VertexT> label(g.num_vertices);
  for (VertexT v = 0; v < g.num_vertices; ++v) label[v] = v;
  std::vector<VertexT> next(label);
  std::vector<VertexT> scratch;
  for (int it = 0; it < max_iterations; ++it) {
    bool changed = false;
    for (VertexT v = 0; v < g.num_vertices; ++v) {
      next[v] = most_frequent_neighbor_label(
          g, v, [&](VertexT u) { return label[u]; }, scratch);
      if (next[v] != label[v]) changed = true;
    }
    label.swap(next);
    if (!changed) break;
  }
  return label;
}

}  // namespace mgg::prim
