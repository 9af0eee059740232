// Gunrock-style frontier operators: advance, filter, compute, and the
// fused advance+filter of §VI-C.
//
// An operator is a "kernel" on a virtual GPU: it does real work on the
// local subgraph and reports its work items (edges / vertices /
// launches) to the device's cost counters, which is how the BSP model
// (§V) prices W.
//
// Two execution pipelines exist, selected by the allocation scheme:
//
//   fused (just-enough, prealloc+fusion): one kernel walks the input
//     frontier's edges exactly once, applies the per-edge functor,
//     deduplicates emissions with a bitmask, and writes the compacted
//     output frontier directly — the intermediate O(|E|) frontier
//     never exists (§VI-C: saves a launch, gains producer-consumer
//     locality, and fits larger subgraphs per GPU). Because the dedup
//     mask caps emissions at |V_i|, no separate sizing scan is needed:
//     the edge work is accumulated during the traversal itself.
//
//   split (fixed, max): the classic two-kernel pipeline as the model
//     and the memory manager see it — a degree scan (degree_scan_into)
//     sizes the intermediate O(|E|) candidate buffers, an "advance"
//     kernel charges the edges, and a "filter_compact" kernel charges
//     the candidates. This is what Fig. 3 measures against. On the
//     host the candidates are never written out: the same walk as
//     fused hands the functor the identical (src, edge) sequence, so
//     the buffers stay allocated (the scheme's modeled memory) but
//     untouched.
//
// Orthogonally, when OpContext::dense_threshold is enabled and the
// input frontier covers more than that fraction of |V_i|, the advance
// iterates vertices directly off the Frontier's bitmap representation
// and marks emissions with plain bit-ors — no dedup atomics, no
// output compaction. This is the push-side analog of the DOBFS pull
// heuristic below; the representation switches automatically per
// iteration and conversions are charged as vertex-work kernels.
//
// advance_pull is the per-vertex advance mode added for
// direction-optimizing traversal (§VI-A): it parallelizes across
// vertices so a vertex can stop scanning edges as soon as it finds a
// valid parent ("edge skipping").
//
// There are two edge loops, each a scan over a range of its input units
// (dense bitmap words, sparse frontier slots) that one scheduler,
// detail::two_phase, runs either whole (the sequential loop) or per
// chunk. Both sparse pipelines run the one sparse walk,
// detail::advance_sparse, and differ only in the sizing and charges
// around it.
//
// Host parallelism (docs/architecture.md §12): when OpContext::pool is
// set, the (test, op) advance_filter form runs that walk as a two-phase
// schedule — a parallel phase over fixed, thread-count-independent
// chunks evaluates a pure per-edge *test* and logs the surviving
// candidates into cache-line-aligned per-chunk buffers, then a
// sequential phase replays the original functor over the concatenated
// logs in chunk order. Because a failed test implies the functor would
// have been a side-effect-free `false`, the replay *is* the sequential
// loop over the same edges: output frontiers, dedup decisions, W
// counters, and every floating-point accumulation are bit-identical to
// the sequential pipeline at every --host-threads value. The bare
// advance_filter(ctx, op) form always runs the sequential walk.
// add_kernel_cost charges the same work regardless of worker count —
// the pool only changes wall-clock time.
#pragma once

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "core/frontier.hpp"
#include "graph/csr.hpp"
#include "util/array1d.hpp"
#include "util/bitset.hpp"
#include "util/pod_vector.hpp"
#include "util/thread_pool.hpp"
#include "vgpu/device.hpp"

namespace mgg::core {

/// Per-chunk scratch slot for the two-phase parallel advance. Each
/// chunk of the parallel phase appends only to its own slot;
/// alignas(64) keeps neighboring slots' hot counters and vector
/// headers on distinct cache lines (the false-sharing audit of the
/// PodVector-backed chunk buffers). Slots are reused across launches:
/// the PodVectors keep their high-water capacity, so the steady-state
/// parallel pipeline performs zero heap allocations.
struct alignas(64) AdvanceChunk {
  /// One logged candidate of the two-phase advance.
  struct Rec {
    VertexT src;
    VertexT dst;
    SizeT e;
  };
  util::PodVector<Rec> recs;       ///< two-phase advance candidate log
  util::PodVector<VertexT> verts;  ///< pull emissions / BC backward targets
  util::PodVector<double> values;  ///< BC backward delta contributions
  std::uint64_t work = 0;          ///< edges this chunk traversed

  void reset() {
    recs.clear();
    verts.clear();
    values.clear();
    work = 0;
  }
  std::size_t capacity_bytes() const {
    return recs.capacity() * sizeof(Rec) + verts.capacity() * sizeof(VertexT) +
           values.capacity() * sizeof(double);
  }
};

/// Everything an operator needs about its execution site. Owned by the
/// enactor's per-GPU slice; primitives receive it in iteration_core.
struct OpContext {
  vgpu::Device* device = nullptr;
  const graph::Graph* g = nullptr;  ///< the GPU's local CSR
  Frontier* frontier = nullptr;
  /// The split pipeline's intermediate candidate buffers: sized per
  /// advance (Fig. 3's device memory), never written.
  util::Array1D<VertexT>* advance_temp = nullptr;
  util::Array1D<SizeT>* advance_temp_edges = nullptr;
  util::AtomicBitset* dedup = nullptr;  ///< |V_i|-sized emission mask
  vgpu::AllocationScheme scheme = vgpu::AllocationScheme::kPreallocFusion;
  /// Dense-representation switch point: when the input frontier holds
  /// more than this fraction of |V_i|, advance_filter iterates the
  /// bitmap instead of the compacted queue. 0 disables dense mode (the
  /// default; the enactor only enables it for primitives that declare
  /// support via dense_frontier_capable()).
  double dense_threshold = 0;
  /// The split pipeline's degree scan (detail::degree_scan_into),
  /// reused across launches so sizing performs no per-launch heap
  /// allocations in steady state.
  util::PodVector<SizeT> degree_scan{};
  /// Host worker pool backing the parallel execution substrate; null
  /// means every operator runs its historical sequential loop. Either
  /// way the results, W, H, and modeled times are bit-identical — the
  /// enactor only installs the pool when Config::host_threads resolves
  /// to more than one worker.
  util::ThreadPool* pool = nullptr;
  /// Per-chunk scratch of the two-phase parallel advance (grow-only,
  /// reused across launches).
  std::vector<AdvanceChunk> par_chunks{};

  bool fused() const {
    return scheme == vgpu::AllocationScheme::kJustEnough ||
           scheme == vgpu::AllocationScheme::kPreallocFusion;
  }

  /// Steady-state scratch footprint (capacity, not size) across the
  /// chunk slots — the zero-allocation regression asserts this stops
  /// growing once the pipeline is warm.
  std::size_t par_scratch_bytes() const {
    std::size_t total = 0;
    for (const AdvanceChunk& c : par_chunks) total += c.capacity_bytes();
    return total;
  }
};

namespace detail {

// Chunk grains of the parallel phase. Chunk counts are pure functions
// of the work size (util::ThreadPool::chunk_count), never of the pool
// width — the cross-thread-count determinism contract.
inline constexpr std::size_t kSlotGrain = 256;   ///< frontier slots
inline constexpr std::size_t kWordGrain = 64;    ///< dense bitmap words
inline constexpr std::size_t kScanGrain = 4096;  ///< degree-scan slots

/// Grow (never shrink) the chunk scratch and reset the first n slots.
inline std::vector<AdvanceChunk>& ensure_chunks(OpContext& ctx,
                                                std::size_t n) {
  if (ctx.par_chunks.size() < n) ctx.par_chunks.resize(n);
  for (std::size_t c = 0; c < n; ++c) ctx.par_chunks[c].reset();
  return ctx.par_chunks;
}

/// The degree prefix scan over a frontier: scan[i] = edges of
/// frontier[0..i), so scan.back() is the exact advance output bound —
/// Gunrock's load-balancing scan, which the split pipeline reuses to
/// size its candidate buffers (§VI-B). Writes into caller-owned scratch
/// (resized to frontier.size() + 1, no reallocation once warm). With a
/// pool it runs as a two-pass parallel prefix (per-chunk degree sums,
/// serial bases, parallel fill); chunk boundaries depend only on the
/// frontier size and the sums are integers, so the scan matches the
/// sequential fold bit for bit at every pool width.
inline void degree_scan_into(const graph::Graph& g,
                             std::span<const VertexT> frontier,
                             util::PodVector<SizeT>& scan,
                             util::ThreadPool* pool) {
  const std::size_t n = frontier.size();
  scan.resize(n + 1);
  scan[0] = 0;
  const std::size_t n_chunks = util::ThreadPool::chunk_count(n, kScanGrain);
  if (pool == nullptr || n_chunks == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      scan[i + 1] = scan[i] + g.degree(frontier[i]);
    }
    return;
  }
  SizeT sums[util::ThreadPool::kMaxChunks];
  pool->run_chunks(n_chunks, [&](std::size_t c) {
    const std::size_t b = util::ThreadPool::chunk_begin(n, n_chunks, c);
    const std::size_t e = util::ThreadPool::chunk_begin(n, n_chunks, c + 1);
    SizeT sum = 0;
    for (std::size_t i = b; i < e; ++i) sum += g.degree(frontier[i]);
    sums[c] = sum;
  });
  SizeT base = 0;
  SizeT bases[util::ThreadPool::kMaxChunks];
  for (std::size_t c = 0; c < n_chunks; ++c) {
    bases[c] = base;
    base += sums[c];
  }
  pool->run_chunks(n_chunks, [&](std::size_t c) {
    const std::size_t b = util::ThreadPool::chunk_begin(n, n_chunks, c);
    const std::size_t e = util::ThreadPool::chunk_begin(n, n_chunks, c + 1);
    SizeT acc = bases[c];
    for (std::size_t i = b; i < e; ++i) {
      acc += g.degree(frontier[i]);
      scan[i + 1] = acc;
    }
  });
}

/// The dense-vs-sparse representation decision shared by every advance
/// entry point (the push-side analog of DOBFS's direction switch): go
/// dense when the frontier covers enough of |V_i|, fall back to sparse
/// when it shrinks again. A conversion is a real pass over the
/// frontier and is charged as vertex work. Returns whether the advance
/// should iterate the bitmap.
inline bool prepare_advance(OpContext& ctx) {
  const graph::Graph& g = *ctx.g;
  Frontier& frontier = *ctx.frontier;
  const bool want_dense =
      ctx.dense_threshold > 0 &&
      static_cast<double>(frontier.input_size()) >
          ctx.dense_threshold * static_cast<double>(g.num_vertices);
  if (want_dense != frontier.input_dense()) {
    const SizeT items = frontier.input_size();
    const bool converted =
        want_dense ? frontier.input_to_dense() : frontier.input_to_sparse();
    if (converted)
      ctx.device->add_kernel_cost(0, items, 1, "frontier_convert");
  }
  frontier.note_advance_mode(frontier.input_dense());
  return frontier.input_dense();
}

/// Calls visit(src, dst, edge) over src's out-edges in CSR order and
/// returns its degree (the edge work).
template <typename Visit>
SizeT walk_edges(const graph::Graph& g, VertexT src, Visit& visit) {
  const auto [begin, end] = g.edge_range(src);
  for (SizeT e = begin; e < end; ++e) visit(src, g.col_indices[e], e);
  return end - begin;
}

/// The one scheduler behind every advance pipeline. The pipeline's loop
/// is `scan(first, last, visit)`: it walks input units [first, last)
/// (bitmap words or frontier slots) in the sequential order, calls
/// visit(src, dst, edge) per candidate edge and returns the edge work.
///
/// Without a test (the bare advance_filter form), without a pool, or
/// when the fixed `grain` plan has one chunk, this is the sequential
/// loop: op per edge, emit(dst) when it returns true. Otherwise a
/// parallel phase scans each chunk, logging the edges that pass `test`,
/// and op replays over the logs in chunk order — the sequential loop
/// over every edge whose op call was not a no-op. emit sees the same
/// sequence and the returned work is the same either way.
template <typename TestOp, typename EdgeOp, typename Scan, typename Emit>
SizeT two_phase(OpContext& ctx, std::size_t units, std::size_t grain,
                const TestOp& test, EdgeOp& op, Scan&& scan, Emit&& emit) {
  if constexpr (!std::is_null_pointer_v<TestOp>) {
    const std::size_t n_chunks = util::ThreadPool::chunk_count(units, grain);
    if (ctx.pool != nullptr && n_chunks > 1) {
      auto& chunks = ensure_chunks(ctx, n_chunks);
      ctx.pool->run_chunks(n_chunks, [&](std::size_t c) {
        AdvanceChunk& ch = chunks[c];
        ch.work = scan(util::ThreadPool::chunk_begin(units, n_chunks, c),
                       util::ThreadPool::chunk_begin(units, n_chunks, c + 1),
                       [&](VertexT src, VertexT dst, SizeT e) {
                         if (test(src, dst, e)) {
                           ch.recs.push_back({src, dst, e});
                         }
                       });
      });
      SizeT work = 0;
      for (std::size_t c = 0; c < n_chunks; ++c) {
        work += static_cast<SizeT>(chunks[c].work);
        for (const AdvanceChunk::Rec& r : chunks[c].recs) {
          if (op(r.src, r.dst, r.e)) emit(r.dst);
        }
      }
      return work;
    }
  }
  return scan(0, units, [&](VertexT src, VertexT dst, SizeT e) {
    if (op(src, dst, e)) emit(dst);
  });
}

/// Commit tail of the sparse pipelines: reset only the dedup bits this
/// launch set (so clearing costs O(output)), commit, charge the kernel.
inline SizeT finish_sparse(OpContext& ctx, const VertexT* out,
                           SizeT produced, SizeT work, std::size_t items,
                           const char* kernel) {
  for (SizeT i = 0; i < produced; ++i) ctx.dedup->clear_bit(out[i]);
  ctx.frontier->commit_output(produced);
  ctx.device->add_kernel_cost(work, items, 1, kernel);
  return produced;
}

/// Dense advance: walk the input bitmap's set bits (ascending vertex
/// order) and mark emissions in the output bitmap with plain bit-ors —
/// no test_and_set atomics (the bitmap absorbs duplicates) and no
/// compaction pass.
template <typename TestOp, typename EdgeOp>
SizeT advance_dense(OpContext& ctx, const TestOp& test, EdgeOp& op) {
  const graph::Graph& g = *ctx.g;
  Frontier& frontier = *ctx.frontier;
  const std::uint64_t* in = frontier.input_words();
  std::uint64_t* out = frontier.dense_output();
  SizeT produced = 0;
  const SizeT work = two_phase(
      ctx, frontier.mask_words(), kWordGrain, test, op,
      [&](std::size_t first, std::size_t last, auto&& visit) {
        SizeT edges = 0;
        for (std::size_t w = first; w < last; ++w) {
          std::uint64_t bits = in[w];
          while (bits != 0) {
            const auto src =
                static_cast<VertexT>((w << 6) + std::countr_zero(bits));
            bits &= bits - 1;
            edges += walk_edges(g, src, visit);
          }
        }
        return edges;
      },
      [&](VertexT dst) {
        std::uint64_t& word = out[dst >> 6];
        const std::uint64_t bit = 1ULL << (dst & 63);
        if ((word & bit) == 0) {
          word |= bit;
          ++produced;
        }
      });
  frontier.commit_output(produced);
  ctx.device->add_kernel_cost(work, frontier.input_size(), 1, "advance_dense");
  return produced;
}

/// Sparse advance: one walk over the input frontier, slot by slot and
/// each slot's edges in CSR order, for both sparse pipelines.
///
/// Fused (§VI-C) needs no sizing scan — the dedup mask caps the output
/// at |V_i|, so the bound is known without touching an edge — and sums
/// the edge work as the walk goes into one "advance_filter" kernel.
///
/// Split sizes the Fig. 3 intermediate buffers to the degree sum
/// (allocation and OOM sites included), charges the "advance" kernel,
/// bounds the output by the candidate count, and after the walk charges
/// the vertex-shaped "filter_compact" kernel over those candidates. The
/// buffers are never written: the walk hands op the (src, edge)
/// sequence a scatter and read-back of them would.
template <typename TestOp, typename EdgeOp>
SizeT advance_sparse(OpContext& ctx, const TestOp& test, EdgeOp& op) {
  const graph::Graph& g = *ctx.g;
  const auto input = ctx.frontier->input();
  SizeT bound = g.num_vertices;
  if (!ctx.fused()) {
    degree_scan_into(g, input, ctx.degree_scan, ctx.pool);
    const SizeT n_raw = ctx.degree_scan.back();
    ctx.advance_temp->ensure_size(n_raw);
    ctx.advance_temp_edges->ensure_size(n_raw);
    ctx.device->add_kernel_cost(n_raw, input.size(), 1, "advance");
    bound = std::min(n_raw, bound);
  }
  VertexT* out = ctx.frontier->request_output(bound);
  SizeT produced = 0;
  const SizeT work = two_phase(
      ctx, input.size(), kSlotGrain, test, op,
      [&](std::size_t first, std::size_t last, auto&& visit) {
        SizeT edges = 0;
        for (std::size_t slot = first; slot < last; ++slot) {
          edges += walk_edges(g, input[slot], visit);
        }
        return edges;
      },
      [&](VertexT dst) {
        if (ctx.dedup->test_and_set(dst)) out[produced++] = dst;
      });
  if (ctx.fused()) {
    return finish_sparse(ctx, out, produced, work, input.size(),
                         "advance_filter");
  }
  // The walk's edge work is the split's candidate count.
  return finish_sparse(ctx, out, produced, 0, work, "filter_compact");
}

/// The kernel pick behind both advance_filter forms; `test` is nullptr
/// for the bare form.
template <typename TestOp, typename EdgeOp>
SizeT advance(OpContext& ctx, const TestOp& test, EdgeOp& op) {
  if (prepare_advance(ctx)) return advance_dense(ctx, test, op);
  return advance_sparse(ctx, test, op);
}

}  // namespace detail

/// Advance + filter: expand every edge of the input frontier, apply
/// `op(src, dst, edge) -> bool` ("should dst join the output
/// frontier?"), and write the deduplicated output frontier. Returns the
/// output size (also committed to the frontier).
///
/// The functor runs exactly once per (frontier vertex, edge); mutations
/// it performs (label updates, distance relaxations) are the
/// computation step fused into the traversal. The raw work counters
/// (edges / vertices / launches) are identical across the fused and
/// split pipelines and across frontier representations; only modeled
/// time differs.
///
/// This form runs the functor as one sequential loop even when a pool
/// is installed: a bare functor may carry cross-edge ordering
/// dependencies (SSSP's relaxations read distances earlier edges
/// wrote), which only the primitive can rule out. Order-free
/// primitives opt into host parallelism via the (test, op) form below.
template <typename EdgeOp>
SizeT advance_filter(OpContext& ctx, EdgeOp&& op) {
  return detail::advance(ctx, nullptr, op);
}

/// Two-phase parallel advance + filter for order-free functors.
///
/// Contract: `test(src, dst, e)` is pure over state that `op` mutates
/// during this advance (it may read anything written before the
/// launch), and `test(...) == false` implies `op(src, dst, e)` would
/// have been a side-effect-free `false`. BFS's functor is the
/// archetype: test = "labels[dst] still unvisited"; every edge failing
/// it is a no-op in the sequential loop.
///
/// Each pipeline (dense, fused, split) runs through detail::two_phase:
/// a parallel phase over fixed, thread-count-independent chunks of its
/// input sums the edge work and logs the candidates that pass `test`,
/// then `op` (with the dedup and output writes) replays over the logs
/// in chunk order — the original
/// sequential loop over exactly the edges whose functor call was not a
/// no-op. Results, W, dedup decisions and every floating-point
/// accumulation `op` performs (PR's rank pushes, BC's sigma sums) are
/// therefore bit-identical to advance_filter(ctx, op) at every pool
/// width, including none.
template <typename TestOp, typename EdgeOp>
SizeT advance_filter(OpContext& ctx, TestOp&& test, EdgeOp&& op) {
  return detail::advance(ctx, test, op);
}

/// Per-vertex pull advance (§VI-A). For each candidate vertex, scan its
/// neighbor list and stop at the first neighbor for which
/// `try_parent(candidate, parent, edge)` returns true; emit the
/// candidate. Edge skipping makes the charged edge work the number of
/// edges actually scanned, not the full degree sum.
///
/// Host parallelism: candidates are chunked into fixed ranges; each
/// chunk scans independently and collects its emissions locally, and
/// the chunk lists are concatenated in chunk order — ascending
/// candidate order, identical to the sequential loop. `try_parent`'s
/// side effects must be confined to the candidate vertex (DOBFS
/// commits labels[v]/preds[v], each candidate's own slots), and any
/// shared state it *reads* that another candidate may commit
/// concurrently (DOBFS reads labels[parent]) must be accessed with
/// relaxed atomics: the read's outcome never changes the decision —
/// frontier parents were labeled before the launch — but the access
/// itself must be race-free.
template <typename ParentOp>
SizeT advance_pull(OpContext& ctx, std::span<const VertexT> candidates,
                   ParentOp&& try_parent) {
  const graph::Graph& g = *ctx.g;
  Frontier& frontier = *ctx.frontier;
  VertexT* out =
      frontier.request_output(static_cast<SizeT>(candidates.size()));
  SizeT produced = 0;
  std::uint64_t scanned = 0;
  const std::size_t n_chunks =
      util::ThreadPool::chunk_count(candidates.size(), detail::kSlotGrain);
  if (ctx.pool == nullptr || n_chunks == 1) {
    for (const VertexT v : candidates) {
      const auto [begin, end] = g.edge_range(v);
      for (SizeT e = begin; e < end; ++e) {
        ++scanned;
        if (try_parent(v, g.col_indices[e], e)) {
          out[produced++] = v;
          break;  // edge skipping: a valid parent ends the scan
        }
      }
    }
  } else {
    auto& chunks = detail::ensure_chunks(ctx, n_chunks);
    ctx.pool->run_chunks(n_chunks, [&](std::size_t c) {
      AdvanceChunk& ch = chunks[c];
      const std::size_t b =
          util::ThreadPool::chunk_begin(candidates.size(), n_chunks, c);
      const std::size_t last =
          util::ThreadPool::chunk_begin(candidates.size(), n_chunks, c + 1);
      for (std::size_t i = b; i < last; ++i) {
        const VertexT v = candidates[i];
        const auto [begin, end] = g.edge_range(v);
        for (SizeT e = begin; e < end; ++e) {
          ++ch.work;
          if (try_parent(v, g.col_indices[e], e)) {
            ch.verts.push_back(v);
            break;
          }
        }
      }
    });
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const AdvanceChunk& ch = chunks[c];
      scanned += ch.work;
      if (!ch.verts.empty()) {
        std::memcpy(out + produced, ch.verts.data(),
                    ch.verts.size() * sizeof(VertexT));
        produced += static_cast<SizeT>(ch.verts.size());
      }
    }
  }
  frontier.commit_output(produced);
  ctx.device->add_kernel_cost(scanned, candidates.size(), 1, "advance_pull");
  return produced;
}

/// Filter: keep input-frontier vertices satisfying `pred(v)`; the
/// output is the compacted survivor list.
template <typename Pred>
SizeT filter(OpContext& ctx, Pred&& pred) {
  Frontier& frontier = *ctx.frontier;
  const auto input = frontier.input();
  VertexT* out = frontier.request_output(static_cast<SizeT>(input.size()));
  SizeT produced = 0;
  for (const VertexT v : input) {
    if (pred(v)) out[produced++] = v;
  }
  frontier.commit_output(produced);
  ctx.device->add_kernel_cost(0, input.size(), 1, "filter");
  return produced;
}

/// Compute: apply `op(v)` to every vertex of `vertices` (a frontier or
/// any vertex list). No frontier output.
template <typename VertexOp>
void compute(OpContext& ctx, std::span<const VertexT> vertices,
             VertexOp&& op) {
  for (const VertexT v : vertices) op(v);
  ctx.device->add_kernel_cost(0, vertices.size(), 1, "compute");
}

}  // namespace mgg::core
