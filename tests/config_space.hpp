// The configuration-space differential (tests/config_space_test.cpp).
//
// The framework runs unmodified single-GPU primitives and layers
// partitioning, communication and synchronization around them (§III),
// so no framework knob may change an answer. expect_holds() runs one
// point of the knob product, checks it against the CPU oracle
// (baselines/cpu_reference), and then, for every differential knob set
// away from its default, reruns with only that knob reset and asserts
// the invariant set that knob keeps:
//
//   knob reset to default     must stay bit-identical
//   host_threads -> 1         results and every RunStats field
//   load_balance -> edge-bal. results and every counter
//   sync_mode -> BSP          results, W/H counters, link bytes; BSP
//                             hides no comm and, at >= 2 GPUs, charges
//                             more overhead than the pipeline
//   scheme -> prealloc+fusion results, iterations, edges, comm items and
//                             bytes, combine items, inter-node bytes
//   wire_format -> raw        results, iterations, edges, comm and
//                             combine items; the raw run never runs a
//                             codec and ships more bytes if the drawn
//                             run encoded anything (never fewer)
//   two_level_combine -> off  results, iterations, edges, comm and
//                             combine items; the flat run never merges;
//                             the two-level run merges once the flat run
//                             crosses nodes and, under raw or auto,
//                             ships no more inter-node bytes
//   dense_threshold -> 0      labels, depths, components, distances and
//                             ranks (dense advances discover in ascending
//                             order, so BFS predecessors and SSSP
//                             counters may move)
//
// Every run also keeps the byte partitions (intra + inter and the three
// wire formats each sum to total_comm_bytes), encodes exactly what it
// decodes, ships nothing inter-node on one node and nothing at all on
// one GPU. Marked BFS/DOBFS predecessors must form a BFS tree.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/problem.hpp"
#include "graph/csr.hpp"
#include "vgpu/cost.hpp"

namespace mgg::test::space {

enum class Prim { kBfs, kDobfs, kSssp, kCc, kBc, kPr, kLp, kMsBfs, kMsSssp };

/// One point of the configuration space.
struct Draw {
  Prim prim = Prim::kBfs;
  int gpus = 1;
  /// > 1: a cluster of `nodes` nodes with gpus / nodes vGPUs each.
  int nodes = 1;
  /// BFS/DOBFS/SSSP use the first source, BC and the batched
  /// primitives all of them; empty: the graph's first connected vertex.
  /// (Declared before `cfg`: GCC 12 reports a defaulted `cfg` followed
  /// by a designated `sources` as maybe-uninitialized.)
  std::vector<VertexT> sources{};
  /// Every knob; num_gpus is taken from `gpus`.
  core::Config cfg{};
};

/// One run's gathered answer and statistics.
struct Outcome {
  std::vector<VertexT> labels;  ///< depths, components, communities
  std::vector<VertexT> preds;   ///< predecessors, when marked
  std::vector<ValueT> values;   ///< distances, ranks, centralities
  std::uint64_t extra = 0;      ///< DOBFS switches, BC iterations
  vgpu::RunStats stats;
};

/// Run `d` on `g` and assert the oracle, the per-run invariants and
/// the invariant set of every knob `d` sets away from its default.
/// Returns the drawn run.
Outcome expect_holds(const graph::Graph& g, const Draw& d);

/// A small "rmat", "social", "web", "grid" or "uniform" graph. Weighted
/// graphs carry integer edge values (the grid's own, otherwise
/// symmetric ones in [1, 16]), so every path sum is exact.
graph::Graph family_graph(std::string_view family, std::uint64_t seed,
                          bool weighted = false);

}  // namespace mgg::test::space
