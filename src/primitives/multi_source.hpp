// Bit-packed multi-source BFS / SSSP (batched query traversal).
//
// Classic MS-BFS packing (Then et al., VLDB'15) on the paper's mGPU
// skeleton: up to 64 sources share one traversal, with per-vertex
// 64-bit words instead of scalar labels:
//
//   mask[v]    cumulative source bits that have reached v (monotone);
//   update_cur[v]   bits v newly gained *last* iteration — frozen
//              while this iteration's advance runs, so the two-phase
//              (test, op) advance keeps its pure-candidate contract;
//   update_next[v]  bits gained *this* iteration, written by the
//              advance op and by expand_incoming. begin_iteration()
//              swaps the two arrays and clears the new next — the
//              level-synchronous analogue of BFS's label stamp.
//
// One advance sweep serves the whole batch: an edge (u, v) is live
// when update_cur[u] has bits v's mask lacks; the op ORs the fresh
// bits into mask/update_next and the output frontier carries v *once*
// per iteration (the operator dedup bitmap — dedup per word, not per
// source). W and S are paid once per batch instead of once per source,
// and H shrinks the same way: a remote push sends each border vertex
// once, with the update word as two VertexT associates (lo/hi — masks
// must travel bit-exactly, and ValueT is float), riding the existing
// raw/bitmap/varint wire formats unchanged.
//
// MsBfs stamps per-slot depths (iteration + 1, exactly BFS's label
// rule) so batched depths are bit-identical to 64 individual runs.
// MsSssp keeps per-slot distances and relaxes only the slots set in
// update_cur[src]; relaxation stays on the sequential single-functor
// advance for the same reason SSSP does (dist[src] may improve mid-
// advance). Distances converge to the same unique least fixpoint as
// individual runs, hence bit-identical results there too.
//
// The serve layer (src/serve/) packs point queries into these batches
// and enacts each through MsEnactorBase; docs/architecture.md §13 has
// the state-split and batching story.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/enactor.hpp"
#include "core/problem.hpp"
#include "graph/csr.hpp"
#include "util/array1d.hpp"
#include "vgpu/machine.hpp"

namespace mgg::prim {

/// Width cap: one machine word of source bits.
inline constexpr int kMaxBatchWidth = 64;

/// Per-GPU bit-mask state shared by the multi-source primitives.
struct MaskSlice {
  util::Array1D<std::uint64_t> mask{"ms.mask"};
  util::Array1D<std::uint64_t> update_cur{"ms.update_cur"};
  util::Array1D<std::uint64_t> update_next{"ms.update_next"};
};

/// Common half of the multi-source Problems: a fixed batch width
/// (slot capacity, allocation-time) and the per-run source list
/// (reset-time; may be shorter than width — partial batches leave the
/// tail slots permanently unreached).
class MsProblemBase : public core::ProblemBase {
 public:
  explicit MsProblemBase(int width);

  int width() const noexcept { return width_; }
  /// Sources of the current run, slot i = sources()[i]. Duplicate
  /// entries are legal (slots then shadow each other bit-for-bit).
  std::span<const VertexT> sources() const noexcept { return sources_; }

  MaskSlice& mask_slice(int gpu) { return mask_slices_[gpu]; }

  /// Unique (host_gpu -> host-local IDs) seed lists for the current
  /// sources, ready for seed_frontier (slot order, deduplicated).
  std::vector<std::vector<VertexT>> seed_lists() const;

  /// Prepare a batched traversal from `srcs` (1..width() sources): the
  /// derived Problem resets its per-slot values, then reset_masks.
  virtual void reset(std::span<const VertexT> srcs) = 0;

 protected:
  /// Allocate the mask/update words for `gpu` (called from the derived
  /// init_data_slice alongside its own arrays).
  void init_mask_slice(int gpu);
  /// Zero all mask state, record `srcs`, and set slot bits: mask on
  /// every local copy of each source (so no GPU re-discovers it), and
  /// update_next on every copy (swapped into update_cur by the
  /// enactor's begin_iteration(0) — iteration 0 reads the seeds there).
  /// `per_copy(slot, gpu, lv)` lets the derived reset stamp its own
  /// per-slot value (depth 0 / distance 0) on the same copies.
  void reset_masks(
      std::span<const VertexT> srcs,
      const std::function<void(int slot, int gpu, VertexT lv)>& per_copy);

 private:
  int width_ = 0;
  std::vector<VertexT> sources_;
  std::vector<MaskSlice> mask_slices_;
};

/// What the multi-source enactors share: seeding, the per-iteration
/// update-word swap, and the update word as two VertexT associates.
/// MsBfs and MsSssp supply only their advance, their combine and (for
/// MsSssp) the per-slot value associates. The serve layer enacts every
/// batch through this class.
class MsEnactorBase : public core::EnactorBase {
 public:
  explicit MsEnactorBase(MsProblemBase& problem)
      : core::EnactorBase(problem), ms_base_(problem) {}

  /// Reset problem data and seed every source's host GPU.
  void reset(std::span<const VertexT> srcs);

 protected:
  /// The update word as lo/hi VertexT slots (bit-exact transport).
  int num_vertex_associates() const override { return 2; }
  void fill_vertex_associates(Slice& s, int slot,
                              std::span<const VertexT> sources,
                              VertexT* out) override;
  /// Swap update_cur/update_next and clear the new next on every GPU
  /// (single-threaded between supersteps); charges the clear as one
  /// memset-shaped kernel per GPU.
  void begin_iteration(std::uint64_t iteration) override;
  /// Word-mask visitation is order-independent within an iteration
  /// (mask ORs are monotone), like BFS's label stamps.
  bool dense_frontier_capable() const override { return true; }
  /// Single advance whose allocation precedes the functors; mask/depth
  /// writes are monotone/first-writer-wins and distance relaxations are
  /// monotone min, so replay is safe.
  bool core_replayable() const override { return true; }

 private:
  MsProblemBase& ms_base_;
};

// ------------------------------------------------------------------
// MsBfs
// ------------------------------------------------------------------

class MsBfsProblem : public MsProblemBase {
 public:
  using MsProblemBase::MsProblemBase;

  /// Per-GPU data beyond the mask words: slot-major per-slot depths
  /// (depth of local vertex lv for slot i lives at i * num_total + lv).
  struct DataSlice {
    util::Array1D<VertexT> depth{"msbfs.depth"};
  };

  DataSlice& data(int gpu) { return slices_[gpu]; }

  void reset(std::span<const VertexT> srcs) override;

 protected:
  void init_data_slice(int gpu) override;

 private:
  std::vector<DataSlice> slices_;
};

class MsBfsEnactor : public MsEnactorBase {
 public:
  explicit MsBfsEnactor(MsBfsProblem& problem)
      : MsEnactorBase(problem), ms_problem_(problem) {}

 protected:
  void iteration_core(Slice& s) override;
  void expand_incoming(Slice& s, const core::Message& msg) override;

 private:
  MsBfsProblem& ms_problem_;
};

/// Batched-BFS result: depth[slot * |V| + v] is slot `slot`'s BFS depth
/// of global vertex v (kInvalidVertex if unreached) — bit-identical to
/// run_bfs(sources[slot]) for every slot.
struct MsBfsResult {
  int width = 0;
  std::vector<VertexT> depth;  ///< slot-major, width x |V|
  vgpu::RunStats stats;

  std::span<const VertexT> slot(int i, std::size_t num_vertices) const {
    return {depth.data() + static_cast<std::size_t>(i) * num_vertices,
            num_vertices};
  }
};

/// Convenience facade: partition, run one batched BFS over `srcs`
/// (1..64 sources), gather per-slot depths.
MsBfsResult run_msbfs(const graph::Graph& g, std::span<const VertexT> srcs,
                      vgpu::Machine& machine, const core::Config& config);

// ------------------------------------------------------------------
// MsSssp
// ------------------------------------------------------------------

class MsSsspProblem : public MsProblemBase {
 public:
  using MsProblemBase::MsProblemBase;

  /// Slot-major per-slot tentative distances (slot i, local lv at
  /// i * num_total + lv; infinity() = unreached).
  struct DataSlice {
    util::Array1D<ValueT> dist{"mssssp.dist"};
  };

  DataSlice& data(int gpu) { return slices_[gpu]; }

  void reset(std::span<const VertexT> srcs) override;

 protected:
  void init_data_slice(int gpu) override;

 private:
  std::vector<DataSlice> slices_;
};

class MsSsspEnactor : public MsEnactorBase {
 public:
  explicit MsSsspEnactor(MsSsspProblem& problem)
      : MsEnactorBase(problem), ms_problem_(problem) {}

 protected:
  void iteration_core(Slice& s) override;
  /// One ValueT slot per batch slot: the sender's tentative distance.
  /// Receivers min-combine only the slots set in the update word.
  int num_value_associates() const override;
  void fill_value_associates(Slice& s, int slot,
                             std::span<const VertexT> sources,
                             ValueT* out) override;
  void expand_incoming(Slice& s, const core::Message& msg) override;

 private:
  MsSsspProblem& ms_problem_;
};

/// Batched-SSSP result: dist[slot * |V| + v] (infinity() if
/// unreachable) — bit-identical to run_sssp(sources[slot]) per slot.
struct MsSsspResult {
  int width = 0;
  std::vector<ValueT> dist;  ///< slot-major, width x |V|
  vgpu::RunStats stats;

  std::span<const ValueT> slot(int i, std::size_t num_vertices) const {
    return {dist.data() + static_cast<std::size_t>(i) * num_vertices,
            num_vertices};
  }
};

MsSsspResult run_msssp(const graph::Graph& g, std::span<const VertexT> srcs,
                       vgpu::Machine& machine, const core::Config& config);

}  // namespace mgg::prim
