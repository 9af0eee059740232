// Multi-GPU single-source shortest paths (Bellman-Ford style frontier
// relaxation, as in Gunrock).
//
// Programmer-specified pieces (Table I row "SSSP"):
//   Computation — advance relaxes every out-edge of the frontier
//     (dist[dst] <- min(dist[dst], dist[src] + w)); vertices whose
//     distance improved join the output frontier. W in O(b x |E_i|)
//     where b is the revisit factor.
//   Communication — selective; the value associate is the improved
//     distance (plus the predecessor when marked). H in O(2b x |B_i|).
//   Combination — keep the minimum of local and received distances;
//     improved vertices join the next frontier.
//   Convergence — all frontiers empty; S ~ b x D/2.
//
// Default duplication is duplicate-1-hop: SSSP only touches direct
// out-neighbors, the case §III-C calls out as ideal for 1-hop +
// selective (less memory, ID conversion handled by the framework).
#pragma once

#include <vector>

#include "core/enactor.hpp"
#include "core/problem.hpp"
#include "graph/csr.hpp"
#include "util/array1d.hpp"
#include "vgpu/machine.hpp"

namespace mgg::prim {

class SsspProblem : public core::ProblemBase {
 public:
  struct DataSlice {
    util::Array1D<ValueT> dist{"sssp.dist"};
    util::Array1D<VertexT> preds{"sssp.preds"};  ///< global IDs
  };

  DataSlice& data(int gpu) { return slices_[gpu]; }
  void reset(VertexT src);
  VertexT source() const noexcept { return source_; }

 protected:
  void init_data_slice(int gpu) override;

 private:
  std::vector<DataSlice> slices_;
  VertexT source_ = 0;
};

class SsspEnactor : public core::EnactorBase {
 public:
  explicit SsspEnactor(SsspProblem& problem)
      : core::EnactorBase(problem), sssp_problem_(problem) {}

  void reset(VertexT src);

 protected:
  void iteration_core(Slice& s) override;
  int num_vertex_associates() const override;
  int num_value_associates() const override { return 1; }
  void fill_vertex_associates(Slice& s, int slot,
                              std::span<const VertexT> sources,
                              VertexT* out) override;
  void fill_value_associates(Slice& s, int slot,
                             std::span<const VertexT> sources,
                             ValueT* out) override;
  void expand_incoming(Slice& s, const core::Message& msg) override;
  /// Relaxations are monotone min-updates, so bitmap iteration order
  /// is safe.
  bool dense_frontier_capable() const override { return true; }
  /// Replayable: relaxations are monotone min-updates.
  bool core_replayable() const override { return true; }

 private:
  SsspProblem& sssp_problem_;
};

struct SsspResult {
  std::vector<ValueT> dist;    ///< infinity() if unreachable
  std::vector<VertexT> preds;  ///< shortest-path tree parent (global)
  vgpu::RunStats stats;
};

/// Convenience facade. `config.duplication` defaults in Config are
/// overridden here to the paper's SSSP choice (duplicate-1-hop) unless
/// the caller changed them; pass an explicit config to control fully.
SsspResult run_sssp(const graph::Graph& g, VertexT src,
                    vgpu::Machine& machine, const core::Config& config);

}  // namespace mgg::prim
