// Multi-GPU betweenness centrality (Brandes' algorithm).
//
// Two phases inside one enact() run, switched by the converged() hook:
//
//   forward  — a BFS that also counts shortest paths (sigma). Each
//     iteration sends two kinds of messages, matching Table I's
//     H = O(5|B_i| + 2(n-1)|L_i|):
//       tag 0 (selective, O(|B_i|)): partial sigma contributions of
//         remote-discovered vertices to their host GPU, combined by
//         addition (multiple GPUs can contribute shortest paths);
//       tag 1 (broadcast, O((n-1)|L_i|)): the previous level's hosted
//         vertices with their *finalized* sigma and depth, so every
//         replica agrees — the backward pass reads proxy sigma/depth.
//   backward — level-synchronous dependency accumulation from the
//     deepest BFS level down to 1: each vertex w at the current level
//     adds sigma[v]/sigma[w] * (1 + delta[w]) to every parent v.
//     Partial deltas of proxy parents travel to their host (tag 2,
//     selective) and are combined by addition.
//
// bc scores accumulate across sources over repeated reset+enact runs;
// run_bc() divides by 2 at the end (undirected double counting).
#pragma once

#include <vector>

#include "core/enactor.hpp"
#include "core/problem.hpp"
#include "graph/csr.hpp"
#include "util/array1d.hpp"
#include "vgpu/machine.hpp"

namespace mgg::prim {

class BcProblem : public core::ProblemBase {
 public:
  struct DataSlice {
    util::Array1D<VertexT> depth{"bc.depth"};
    util::Array1D<double> sigma{"bc.sigma"};      ///< finalized counts
    util::Array1D<double> sigma_acc{"bc.sigma_acc"};  ///< partials
    util::Array1D<double> delta_acc{"bc.delta_acc"};
    util::Array1D<double> bc{"bc.scores"};  ///< accumulated over sources
    std::vector<std::vector<VertexT>> levels;  ///< hosted vertices per depth
    std::vector<VertexT> border;               ///< proxy list (fixed)
  };

  DataSlice& data(int gpu) { return slices_[gpu]; }

  /// Clear per-source state (depth/sigma/delta/levels); bc scores are
  /// preserved so sources accumulate.
  void reset(VertexT src);
  VertexT source() const noexcept { return source_; }

 protected:
  void init_data_slice(int gpu) override;

 private:
  std::vector<DataSlice> slices_;
  VertexT source_ = 0;
};

class BcEnactor : public core::EnactorBase {
 public:
  enum class Phase { kForward, kBackward };

  explicit BcEnactor(BcProblem& problem)
      : core::EnactorBase(problem), bc_problem_(problem) {}

  void reset(VertexT src);
  Phase phase() const noexcept { return phase_; }

 protected:
  void iteration_core(Slice& s) override;
  void communicate(Slice& s) override;
  void expand_incoming(Slice& s, const core::Message& msg) override;
  bool converged(bool all_frontiers_empty, std::uint64_t iteration) override;
  /// NOT replayable: sigma/delta accumulations are additive (replaying
  /// a core would double-count path counts and dependencies). A
  /// mid-core OOM propagates as an error.
  bool core_replayable() const override { return false; }

 private:
  void core_forward(Slice& s);
  void core_backward(Slice& s);
  void communicate_forward(Slice& s);
  void communicate_backward(Slice& s);

  BcProblem& bc_problem_;
  Phase phase_ = Phase::kForward;
  VertexT current_level_ = 0;  ///< backward: level being processed
};

struct BcResult {
  std::vector<ValueT> bc;  ///< centrality (halved for undirected graphs)
  vgpu::RunStats stats;    ///< stats of the *last* source's run
  std::uint64_t total_iterations = 0;  ///< across all sources
};

/// BC accumulated over `sources` (empty = all vertices; the paper uses
/// sampled sources for large graphs).
BcResult run_bc(const graph::Graph& g, vgpu::Machine& machine,
                core::Config config, std::vector<VertexT> sources = {});

}  // namespace mgg::prim
