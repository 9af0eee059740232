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
  // the proxies that hold a contribution (reusing the slice's per-peer
  // scratch), then package one pooled message per peer so the steady
  // state allocates nothing.
  PagerankProblem::DataSlice& d = pr_problem_.data(s.gpu);
  route_items(s, d.border, [&](VertexT p) { return d.acc[p] != 0; });
  push_routed(s, static_cast<SizeT>(d.border.size()), "pr_package");
  s.frontier.swap();
}

void PagerankEnactor::fill_value_associates(Slice& s, int /*slot*/,
                                            std::span<const VertexT> sources,
                                            ValueT* out) {
  // Hand the accumulated contribution off to its host: the proxy's
  // accumulator restarts at zero for the next advance.
  auto& acc = pr_problem_.data(s.gpu).acc;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = acc[sources[i]];
    acc[sources[i]] = 0;
  }
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
