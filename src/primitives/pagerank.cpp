#include "primitives/pagerank.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "primitives/common.hpp"
#include "util/error.hpp"

namespace mgg::prim {

void PagerankProblem::init_data_slice(int gpu) {
  if (slices_.empty()) slices_.resize(num_gpus());
  DataSlice& d = slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  d.rank.set_allocator(&device(gpu).memory());
  d.rank.allocate(s.num_total());
  d.acc.set_allocator(&device(gpu).memory());
  d.acc.allocate(s.num_total());
  d.active.set_allocator(&device(gpu).memory());
  d.active.allocate(s.num_local);
  // The remote sub-frontier is static (Algorithm 3): compute it once.
  d.border = proxy_vertices(s);
  d.hosted = hosted_vertices(s);
}

void PagerankProblem::reset() {
  const auto n = static_cast<ValueT>(partitioned().global_vertices());
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    DataSlice& d = slices_[gpu];
    d.rank.fill(ValueT{1} / n);
    d.acc.fill(0);
  }
}

void PagerankEnactor::reset() {
  pr_problem_.reset();
  reset_frontiers();
  max_rel_delta_.assign(num_gpus(), std::numeric_limits<ValueT>::max());
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    seed_frontier(gpu, pr_problem_.data(gpu).hosted);
  }
}

void PagerankEnactor::iteration_core(Slice& s) {
  PagerankProblem::DataSlice& d = pr_problem_.data(s.gpu);
  const graph::Graph& g = s.sub->csr;
  const auto n =
      static_cast<ValueT>(pr_problem_.partitioned().global_vertices());

  if (iteration() > 0) {
    // Filter/update kernel (skipped on the first iteration, Algorithm
    // 3): fold accumulated contributions into new ranks and measure
    // the largest relative movement for the convergence test.
    ValueT max_rel = 0;
    for (const VertexT v : d.hosted) {
      const ValueT nr =
          (ValueT{1} - options_.damping) / n + options_.damping * d.acc[v];
      max_rel = std::max(
          max_rel, std::abs(nr - d.rank[v]) /
                       std::max(d.rank[v], ValueT{1e-12f}));
      d.rank[v] = nr;
      d.acc[v] = 0;
    }
    max_rel_delta_[s.gpu] = max_rel;
    s.device->add_kernel_cost(0, d.hosted.size(), 1, "pr_update");
  }

  // Advance kernel: every hosted vertex divides its rank among its
  // out-neighbors. Emits nothing — PR's frontier is the full hosted
  // set every iteration (Table I: W = S x O(|E_i|)).
  //
  // (test, op) form: every edge is a candidate, and the op replay folds
  // the contributions into acc in the original sequential edge order —
  // the accumulation stays bit-identical at every --host-threads value.
  core::advance_filter(
      s.ctx, [&](VertexT, VertexT, SizeT) { return true; },
      [&](VertexT src, VertexT dst, SizeT) {
        d.acc[dst] += d.rank[src] / static_cast<ValueT>(g.degree(src));
        return false;
      });

  // The next iteration works on the full hosted set again.
  s.frontier.carry_input_to_output();
}

void PagerankEnactor::communicate(Slice& s) {
  if (num_gpus() == 1) {
    s.frontier.swap();
    return;
  }
  // Push each border proxy's accumulated rank to its host GPU. The
  // vertex set is static; only the values change (Algorithm 3). Route
  // first (reusing the slice's per-peer scratch), then package one
  // pooled message per peer so the steady state allocates nothing.
  PagerankProblem::DataSlice& d = pr_problem_.data(s.gpu);
  const part::SubGraph& sub = *s.sub;
  route_items(s, d.border, [&](VertexT p) { return d.acc[p] != 0; });
  std::uint64_t chunk_vertices = 0;
  for (int peer = 0; peer < num_gpus(); ++peer) {
    if (peer == s.gpu) continue;
    const std::span<const VertexT> sources = peer_bucket(s, peer);
    if (sources.empty()) {
      mark_peer_done(s, peer);
      continue;
    }
    if (pipeline_mode()) {
      // This peer's chunk of the packaging kernel: its transfer may
      // start as soon as the chunk is done (see EnactorBase's
      // split_frontier_and_push for the pattern).
      s.device->add_kernel_cost(0, sources.size(), 0, "pr_package");
      chunk_vertices += sources.size();
    }
    core::Message msg = bus().acquire();
    msg.set_layout(0, 1, sources.size());
    const auto acc_out = msg.value_slot(0);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const VertexT p = sources[i];
      msg.vertices[i] = sub.host_local_id[p];
      acc_out[i] = d.acc[p];
      d.acc[p] = 0;
    }
    encode_for_wire(s, msg);
    bus().push(s.gpu, peer, std::move(msg));
    mark_peer_done(s, peer);
  }
  // Remainder of the packaging charge (BSP: the whole thing, since no
  // chunks were carved out above). Vertex/launch totals match across
  // modes by construction.
  s.device->add_kernel_cost(0, d.border.size() - chunk_vertices, 1,
                            "pr_package");
  s.frontier.swap();
}

void PagerankEnactor::expand_incoming(Slice& s, const core::Message& msg) {
  // Combiner: atomicAdd of received partial ranks (Algorithm 3).
  PagerankProblem::DataSlice& d = pr_problem_.data(s.gpu);
  const auto acc_in = msg.value_slot(0);
  for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
    d.acc[msg.vertices[i]] += acc_in[i];
  }
}

bool PagerankEnactor::converged(bool /*all_frontiers_empty*/,
                                std::uint64_t iteration) {
  if (iteration < 2) return false;  // need one full update round
  for (const ValueT rel : max_rel_delta_) {
    if (rel >= options_.threshold) return false;
  }
  return true;
}

PagerankResult run_pagerank(const graph::Graph& g, vgpu::Machine& machine,
                            const core::Config& config,
                            PagerankOptions options) {
  core::Config base = config;
  // +1 iteration: the first advance happens before the first update.
  base.max_iterations =
      static_cast<std::uint64_t>(options.max_iterations) + 1;

  return run_with_degrade(machine, base, [&](const core::Config& cfg) {
    PagerankProblem problem;
    problem.init(g, machine, cfg);
    PagerankEnactor enactor(problem, options);
    enactor.reset();

    PagerankResult result;
    result.stats = enactor.enact();
    result.rank = gather_vertex_values<ValueT>(
        problem.partitioned(),
        [&](int gpu, VertexT lv) { return problem.data(gpu).rank[lv]; });
    return result;
  });
}

}  // namespace mgg::prim
