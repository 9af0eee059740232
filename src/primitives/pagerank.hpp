// Multi-GPU PageRank (paper Algorithm 3).
//
// Push formulation: each active vertex divides its rank among its
// out-neighbors (an advance), then a filter updates ranks from the
// accumulated contributions and keeps only vertices whose rank still
// moves more than the threshold.
//
// Communication is *not* frontier-shaped: the remote sub-frontiers
// never change ("we get all these sub-frontiers during the
// initialization step, and only send ranking values during actual
// computation"), so communicate() is overridden to push each border
// proxy's locally-accumulated rank to its host GPU, where the
// combiner is an add. H in O(|B_i|) and C in O(|B_i|) per iteration.
//
// Convergence: every rank update falls below the threshold ratio (the
// active frontier empties) or max_iterations is reached; S does not
// affect scalability.
#pragma once

#include <vector>

#include "core/enactor.hpp"
#include "core/problem.hpp"
#include "graph/csr.hpp"
#include "util/array1d.hpp"
#include "vgpu/machine.hpp"

namespace mgg::prim {

struct PagerankOptions {
  ValueT damping = 0.85f;
  ValueT threshold = 0.001f;  ///< relative per-vertex movement
  int max_iterations = 50;
};

class PagerankProblem : public core::ProblemBase {
 public:
  struct DataSlice {
    util::Array1D<ValueT> rank{"pr.rank"};
    util::Array1D<ValueT> acc{"pr.acc"};  ///< incoming contributions
    /// Border proxies of this GPU (fixed over the whole run).
    std::vector<VertexT> border;
    /// Hosted vertices (the L_i list, reused every update step).
    std::vector<VertexT> hosted;
    /// Scratch for the active-vertex list built by the update filter.
    util::Array1D<VertexT> active{"pr.active"};
  };

  DataSlice& data(int gpu) { return slices_[gpu]; }
  void reset();

 protected:
  void init_data_slice(int gpu) override;

 private:
  std::vector<DataSlice> slices_;
};

class PagerankEnactor : public core::EnactorBase {
 public:
  PagerankEnactor(PagerankProblem& problem, PagerankOptions options = {})
      : core::EnactorBase(problem),
        pr_problem_(problem),
        options_(options) {}

  void reset();

 protected:
  void iteration_core(Slice& s) override;
  void communicate(Slice& s) override;
  /// One ValueT associate: the proxy's accumulated rank contribution.
  int num_value_associates() const override { return 1; }
  void fill_value_associates(Slice& s, int slot,
                             std::span<const VertexT> sources,
                             ValueT* out) override;
  void expand_incoming(Slice& s, const core::Message& msg) override;
  bool converged(bool all_frontiers_empty, std::uint64_t iteration) override;
  /// Rank pushes commute (floating-point order is fixed by the
  /// ascending hosted-vertex update), so bitmap frontiers are safe.
  bool dense_frontier_capable() const override { return true; }
  /// NOT replayable: the advance's `acc[dst] += ...` contributions are
  /// not idempotent — replaying a partially-run core would double-add
  /// rank mass. A mid-core OOM propagates as an error.
  bool core_replayable() const override { return false; }

 private:
  PagerankProblem& pr_problem_;
  PagerankOptions options_;
  /// Largest relative rank movement per GPU in the latest update step
  /// (each entry written only by its GPU's thread; read between
  /// supersteps for the global stop test).
  std::vector<ValueT> max_rel_delta_;
};

struct PagerankResult {
  std::vector<ValueT> rank;
  vgpu::RunStats stats;
};

PagerankResult run_pagerank(const graph::Graph& g, vgpu::Machine& machine,
                            const core::Config& config,
                            PagerankOptions options = {});

}  // namespace mgg::prim
