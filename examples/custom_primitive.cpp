// Writing a NEW multi-GPU primitive against the framework — the
// paper's programmability claim (§III-B) in practice.
//
// The primitive: single-source *widest path* (maximum-capacity path):
//   width[v] = max over paths P from src to v of (min edge weight in P)
// Useful for max-bandwidth routing. It is not one of the six shipped
// primitives, and it needs a different combiner (max instead of min),
// which is exactly the kind of variation the abstraction must absorb.
//
// Per §III-B, the programmer specifies only:
//   1. the core iteration        -> one fused advance+filter relaxation
//   2. the data to communicate   -> the candidate width (1 value assoc)
//   3. the combine operation     -> keep the maximum
//   4. the stop condition        -> default (all frontiers empty)
// Partitioning, splitting, packaging, pushing, merging, convergence,
// and cost accounting all come from EnactorBase, unchanged.
//
//   ./custom_primitive [--gpus=4] [--scale=11]
#include <algorithm>
#include <cstdio>
#include <limits>
#include <queue>
#include <vector>

#include "core/enactor.hpp"
#include "core/problem.hpp"
#include "graph/generators.hpp"
#include "primitives/common.hpp"
#include "util/options.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/stats_io.hpp"
#include "vgpu/trace.hpp"

namespace {

using namespace mgg;

// ---------------------------------------------------------------------
// 1/4 of the work: the Problem holds per-GPU width values.
// ---------------------------------------------------------------------
class WidestPathProblem : public core::ProblemBase {
 public:
  util::Array1D<ValueT>& width(int gpu) { return widths_[gpu]; }

  void reset(VertexT src) {
    for (int gpu = 0; gpu < num_gpus(); ++gpu) {
      widths_[gpu].fill(0);  // no path known: width 0
    }
    const auto [host, host_local] = locate(src);
    widths_[host][host_local] =
        std::numeric_limits<ValueT>::infinity();  // source: unbounded
  }

 protected:
  void init_data_slice(int gpu) override {
    if (widths_.empty()) widths_.resize(num_gpus());
    widths_[gpu].set_name("widest.width");
    widths_[gpu].set_allocator(&device(gpu).memory());
    widths_[gpu].allocate(sub(gpu).num_total());
  }

 private:
  std::vector<util::Array1D<ValueT>> widths_;
};

// ---------------------------------------------------------------------
// The Enactor supplies the three §III-B hooks. Everything else is
// inherited.
// ---------------------------------------------------------------------
class WidestPathEnactor : public core::EnactorBase {
 public:
  explicit WidestPathEnactor(WidestPathProblem& problem)
      : core::EnactorBase(problem), wp_(problem) {}

  void reset(VertexT src) {
    wp_.reset(src);
    reset_frontiers();
    const auto [host, host_local] = wp_.locate(src);
    const VertexT seed[] = {host_local};
    seed_frontier(host, seed);
  }

 protected:
  // (1) Core: relax each frontier edge with min(width[src], w(e));
  // improved destinations join the output frontier.
  void iteration_core(Slice& s) override {
    auto& width = wp_.width(s.gpu);
    const auto& values = s.sub->csr.edge_values;
    core::advance_filter(s.ctx, [&](VertexT src, VertexT dst, SizeT e) {
      const ValueT candidate = std::min(width[src], values[e]);
      if (candidate <= width[dst]) return false;
      width[dst] = candidate;
      return true;
    });
  }

  // (2) Data to communicate: the improved width — one batched gather
  // per outgoing message.
  int num_value_associates() const override { return 1; }
  void fill_value_associates(Slice& s, int /*slot*/,
                             std::span<const VertexT> sources,
                             ValueT* out) override {
    const auto& width = wp_.width(s.gpu);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      out[i] = width[sources[i]];
    }
  }

  // (3) Combine: keep the maximum of local and received widths.
  void expand_incoming(Slice& s, const core::Message& msg) override {
    auto& width = wp_.width(s.gpu);
    const auto width_in = msg.value_slot(0);
    for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
      const VertexT v = msg.vertices[i];
      if (width_in[i] <= width[v]) continue;
      width[v] = width_in[i];
      s.frontier.append_input(v);
    }
  }
  // (4) Stop condition: the inherited default (all frontiers empty).

 private:
  WidestPathProblem& wp_;
};

// CPU oracle: Dijkstra with a max-heap on widths.
std::vector<ValueT> cpu_widest(const graph::Graph& g, VertexT src) {
  std::vector<ValueT> width(g.num_vertices, 0);
  width[src] = std::numeric_limits<ValueT>::infinity();
  std::priority_queue<std::pair<ValueT, VertexT>> heap;
  heap.emplace(width[src], src);
  while (!heap.empty()) {
    const auto [w, u] = heap.top();
    heap.pop();
    if (w < width[u]) continue;
    const auto [begin, end] = g.edge_range(u);
    for (SizeT e = begin; e < end; ++e) {
      const VertexT v = g.col_indices[e];
      const ValueT cand = std::min(w, g.edge_values[e]);
      if (cand > width[v]) {
        width[v] = cand;
        heap.emplace(cand, v);
      }
    }
  }
  return width;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options options(argc, argv);
  options.check_unknown({"gpus", "scale", "trace", "fault-plan",
                         "fault-seed", "wire-format", "host-threads"});
  const int gpus = static_cast<int>(options.get_int("gpus", 4));
  const int scale = static_cast<int>(options.get_int("scale", 11));
  const std::string trace_path = options.get_string("trace", "");

  auto coo = graph::make_rmat(scale, 8);
  graph::assign_random_weights(coo, 1, 100);
  const auto g = graph::build_undirected(std::move(coo));
  std::printf("graph: %u vertices, %u weighted edges\n", g.num_vertices,
              g.num_edges);

  auto machine = vgpu::Machine::create("k40", gpus);
  const auto fault_injector = vgpu::make_injector_from_flags(
      options.get_string("fault-plan", ""),
      static_cast<std::uint64_t>(options.get_int("fault-seed", 0)), gpus);
  if (fault_injector != nullptr) {
    machine.set_fault_injector(fault_injector.get());
    std::printf("fault injection armed: %s\n",
                fault_injector->plan().to_string().c_str());
  }
  vgpu::Tracer tracer;
  if (!trace_path.empty()) machine.set_tracer(&tracer);
  core::Config config;
  config.num_gpus = gpus;
  config.wire_format =
      core::parse_wire_format(options.get_string("wire-format", "raw"));
  config.host_threads = static_cast<int>(options.get_int("host-threads", 0));

  WidestPathProblem problem;
  problem.init(g, machine, config);
  WidestPathEnactor enactor(problem);

  const VertexT src = 0;
  enactor.reset(src);
  const auto stats = enactor.enact();

  const auto result = prim::gather_vertex_values<ValueT>(
      problem.partitioned(),
      [&](int gpu, VertexT lv) { return problem.width(gpu)[lv]; });

  // Validate against the oracle.
  const auto expected = cpu_widest(g, src);
  VertexT mismatches = 0;
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    if (result[v] != expected[v]) ++mismatches;
  }
  std::printf("widest-path on %d GPUs: %llu iterations, %.3f ms modeled, "
              "%u mismatches vs CPU oracle\n",
              gpus, static_cast<unsigned long long>(stats.iterations),
              stats.modeled_total_s() * 1e3, mismatches);

  // Show a few results.
  for (VertexT v = 1; v <= 5 && v < g.num_vertices; ++v) {
    std::printf("  width[%u] = %.0f\n", v, result[v]);
  }

  if (!trace_path.empty()) {
    tracer.write_chrome_trace(trace_path);
    vgpu::save_run_stats_json(trace_path + ".stats.json", stats, {},
                              &tracer);
    std::printf("trace written to %s (+ .stats.json)\n",
                trace_path.c_str());
  }
  return mismatches == 0 ? 0 : 1;
}
