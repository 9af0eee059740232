// One seeded property suite over the whole configuration space
// (tests/config_space.hpp holds the invariants it asserts).
//
// Draw i runs primitive i mod 8 on machine shape i mod 13, so every
// (primitive, shape) pair occurs; a seeded util::Rng draws everything
// else: the graph family and seed, the sources, the context knobs the
// primitive accepts (partitioner, duplication, comm strategy) and every
// differential knob. Each draw is one gtest case
// (Draws/ConfigSpace.Holds/<i>) whose failures print the draw index,
// its seed and the full config. ConfigSpace.DrawsCoverEveryKnobPair
// enumerates the draws without running them and proves that they cover
// every knob value with every primitive and every value pair of any
// two differential knobs.
#include "config_space.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <span>
#include <sstream>
#include <string>

#include "baselines/cpu_reference.hpp"
#include "graph/generators.hpp"
#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/cc.hpp"
#include "primitives/dobfs.hpp"
#include "primitives/multi_source.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/sssp.hpp"
#include "test_support.hpp"
#include "util/random.hpp"

namespace mgg::test::space {
namespace {

using vgpu::RunStats;

constexpr const char* kPrimNames[] = {"bfs", "dobfs", "sssp",  "cc",
                                      "bc",  "pr",    "msbfs", "mssssp"};
constexpr int kNumPrims = static_cast<int>(std::size(kPrimNames));

std::string describe(const Draw& d) {
  const core::Config& c = d.cfg;
  std::ostringstream os;
  os << kPrimNames[static_cast<int>(d.prim)]
     << (c.mark_predecessors ? "+preds" : "") << " on " << d.gpus
     << " vGPUs";
  if (d.nodes > 1) os << " (" << d.nodes << " nodes)";
  os << ": partitioner=" << c.partitioner
     << " duplication=" << part::to_string(c.duplication)
     << " comm=" << core::to_string(c.comm)
     << " sync=" << core::to_string(c.sync_mode)
     << " wire=" << core::to_string(c.wire_format)
     << " two_level=" << c.two_level_combine
     << " host_threads=" << c.host_threads
     << " scheme=" << vgpu::to_string(c.scheme)
     << " dense=" << c.dense_threshold << " sources={";
  for (const VertexT s : d.sources) os << s << ",";
  os << "}";
  return os.str();
}

std::vector<VertexT> sources_of(const graph::Graph& g, const Draw& d) {
  if (!d.sources.empty()) return d.sources;
  return {first_connected_vertex(g)};
}

Outcome run(const graph::Graph& g, const Draw& d, core::Config cfg) {
  cfg.num_gpus = d.gpus;
  auto machine =
      d.nodes > 1
          ? vgpu::Machine::create_cluster("k40", d.gpus / d.nodes, d.nodes)
          : vgpu::Machine::create("k40", d.gpus);
  const std::vector<VertexT> srcs = sources_of(g, d);
  switch (d.prim) {
    case Prim::kBfs: {
      auto r = prim::run_bfs(g, srcs[0], machine, cfg);
      return {std::move(r.labels), std::move(r.preds), {}, 0, r.stats};
    }
    case Prim::kDobfs: {
      auto r = prim::run_dobfs(g, srcs[0], machine, cfg);
      return {std::move(r.labels), std::move(r.preds), {},
              static_cast<std::uint64_t>(r.direction_switches), r.stats};
    }
    case Prim::kSssp: {
      auto r = prim::run_sssp(g, srcs[0], machine, cfg);
      return {{}, std::move(r.preds), std::move(r.dist), 0, r.stats};
    }
    case Prim::kCc: {
      auto r = prim::run_cc(g, machine, cfg);
      return {std::move(r.comp), {}, {}, 0, r.stats};
    }
    case Prim::kBc: {
      auto r = prim::run_bc(g, machine, cfg, srcs);
      return {{}, {}, std::move(r.bc), r.total_iterations, r.stats};
    }
    case Prim::kPr: {
      auto r = prim::run_pagerank(g, machine, cfg);
      return {{}, {}, std::move(r.rank), 0, r.stats};
    }
    case Prim::kMsBfs: {
      auto r = prim::run_msbfs(g, srcs, machine, cfg);
      return {std::move(r.depth), {}, {}, 0, r.stats};
    }
    case Prim::kMsSssp: {
      auto r = prim::run_msssp(g, srcs, machine, cfg);
      return {{}, {}, std::move(r.dist), 0, r.stats};
    }
  }
  return {};
}

/// Bitwise equality, reporting the first difference only.
template <typename A, typename B>
void expect_bits(const A& got, const B& want, const char* what) {
  ASSERT_EQ(std::size(got), std::size(want)) << what;
  for (std::size_t i = 0; i < std::size(want); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(want[i])) != 0) {
      ADD_FAILURE() << what << " differ first at " << i << ": " << got[i]
                    << " vs " << want[i];
      return;
    }
  }
}

void expect_near(const std::vector<ValueT>& got,
                 const std::vector<double>& want,
                 const std::function<double(double)>& tolerance,
                 const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= tolerance(want[i]))) {
      ADD_FAILURE() << what << " differ first at " << i << ": " << got[i]
                    << " vs " << want[i];
      return;
    }
  }
}

void expect_bfs_tree(const graph::Graph& g, VertexT src,
                     const std::vector<VertexT>& depth,
                     const std::vector<VertexT>& preds) {
  ASSERT_EQ(preds.size(), depth.size()) << "predecessors";
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    if (v == src || depth[v] == kInvalidVertex) continue;
    const VertexT p = preds[v];
    const bool ok = p < g.num_vertices && depth[p] + 1 == depth[v] &&
                    std::ranges::binary_search(g.neighbors(p), v);
    if (!ok) {
      ADD_FAILURE() << "vertex " << v << " at depth " << depth[v]
                    << " has predecessor " << p << ", not a BFS parent";
      return;
    }
  }
}

void expect_oracle(const graph::Graph& g, const Draw& d, const Outcome& o) {
  const std::vector<VertexT> srcs = sources_of(g, d);
  const std::size_t nv = g.num_vertices;
  switch (d.prim) {
    case Prim::kBfs:
    case Prim::kDobfs: {
      const auto depth = baselines::cpu_bfs(g, srcs[0]);
      expect_bits(o.labels, depth, "depths vs cpu_bfs");
      if (d.cfg.mark_predecessors) expect_bfs_tree(g, srcs[0], depth, o.preds);
      break;
    }
    case Prim::kSssp:
      expect_bits(o.values, baselines::cpu_sssp(g, srcs[0]),
                  "distances vs cpu_sssp");
      break;
    case Prim::kCc:
      expect_bits(o.labels, baselines::cpu_cc(g), "components vs cpu_cc");
      break;
    case Prim::kBc: {
      std::vector<double> want(nv, 0);
      for (const VertexT src : srcs) {
        const auto partial = baselines::cpu_bc_single_source(g, src);
        for (std::size_t v = 0; v < nv; ++v) want[v] += partial[v] / 2;
      }
      expect_near(o.values, want,
                  [](double w) { return 1e-3 * std::max(1.0, w); },
                  "centralities vs cpu_bc");
      break;
    }
    case Prim::kPr: {
      const prim::PagerankOptions opt;
      const auto want = baselines::cpu_pagerank(g, opt.damping, opt.threshold,
                                                opt.max_iterations);
      expect_near(o.values, std::vector<double>(want.begin(), want.end()),
                  [](double w) { return 0.05 * w + 1e-6; },
                  "ranks vs cpu_pagerank");
      break;
    }
    case Prim::kMsBfs:
    case Prim::kMsSssp:
      ASSERT_EQ(d.prim == Prim::kMsBfs ? o.labels.size() : o.values.size(),
                srcs.size() * nv)
          << "slot-major batch result";
      for (std::size_t slot = 0; slot < srcs.size(); ++slot) {
        SCOPED_TRACE("slot " + std::to_string(slot));
        if (d.prim == Prim::kMsBfs) {
          expect_bits(std::span(o.labels).subspan(slot * nv, nv),
                      baselines::cpu_bfs(g, srcs[slot]), "depths vs cpu_bfs");
        } else {
          expect_bits(std::span(o.values).subspan(slot * nv, nv),
                      baselines::cpu_sssp(g, srcs[slot]),
                      "distances vs cpu_sssp");
        }
      }
      break;
  }
}

void expect_run_invariants(const Draw& d, const RunStats& s) {
  EXPECT_EQ(s.intra_node_bytes + s.inter_node_bytes, s.total_comm_bytes);
  EXPECT_EQ(s.wire_bytes_raw + s.wire_bytes_bitmap + s.wire_bytes_delta,
            s.total_comm_bytes);
  EXPECT_EQ(s.wire_encode_vertices, s.wire_decode_vertices);
  if (d.nodes == 1) {
    EXPECT_EQ(s.inter_node_bytes, 0u);
    EXPECT_EQ(s.gateway_merges, 0u);
  }
  if (d.gpus == 1) {
    EXPECT_EQ(s.total_comm_items, 0u);
    EXPECT_EQ(s.total_comm_bytes, 0u);
  }
}

/// Labels and values always; predecessors and the extra result too
/// unless only the answer itself must hold.
void expect_same_results(const Outcome& a, const Outcome& b,
                         bool answer_only) {
  expect_bits(a.labels, b.labels, "labels");
  expect_bits(a.values, b.values, "values");
  if (answer_only) return;
  expect_bits(a.preds, b.preds, "predecessors");
  EXPECT_EQ(a.extra, b.extra) << "direction switches / BC iterations";
}

// Every RunStats counter, ordered so that each knob keeps a prefix:
// the wire format and the two-level combine keep the item counters,
// the scheme also the bytes, the schedule also W and the link split,
// host threads all of them.
constexpr std::pair<const char*, std::uint64_t RunStats::*> kCounters[] = {
    {"iterations", &RunStats::iterations},
    {"total_edges", &RunStats::total_edges},
    {"total_comm_items", &RunStats::total_comm_items},
    {"total_combine_items", &RunStats::total_combine_items},
    {"total_comm_bytes", &RunStats::total_comm_bytes},
    {"inter_node_bytes", &RunStats::inter_node_bytes},
    {"total_vertices", &RunStats::total_vertices},
    {"total_launches", &RunStats::total_launches},
    {"intra_node_bytes", &RunStats::intra_node_bytes},
    {"dense_switches", &RunStats::dense_switches},
    {"wire_bytes_raw", &RunStats::wire_bytes_raw},
    {"wire_bytes_bitmap", &RunStats::wire_bytes_bitmap},
    {"wire_bytes_delta", &RunStats::wire_bytes_delta},
    {"wire_encode_vertices", &RunStats::wire_encode_vertices},
    {"wire_decode_vertices", &RunStats::wire_decode_vertices},
    {"gateway_merges", &RunStats::gateway_merges},
    {"gateway_dedup_items", &RunStats::gateway_dedup_items},
    {"oom_regrows", &RunStats::oom_regrows},
    {"comm_retries", &RunStats::comm_retries},
    {"faults_injected", &RunStats::faults_injected},
    {"degraded_reruns", &RunStats::degraded_reruns},
};
constexpr int kItemCounters = 4;
constexpr int kByteCounters = 6;
constexpr int kWorkCounters = 9;
constexpr int kAllCounters = static_cast<int>(std::size(kCounters));

/// A differential knob: a draw that sets it away from its default is
/// rerun with it reset, and the two runs must share the results (only
/// the answer if `answer_only`), the first `counters` of kCounters and
/// whatever `also` asserts on the (drawn, reset) stats.
struct Knob {
  const char* name;
  bool (*away)(const core::Config&);
  void (*reset)(core::Config&);
  int counters;
  bool answer_only;
  void (*also)(const Draw&, const RunStats& drawn, const RunStats& reset);
};

const Knob kKnobs[] = {
    {"host_threads -> 1",
     [](const core::Config& c) { return c.host_threads != 1; },
     [](core::Config& c) { c.host_threads = 1; }, kAllCounters, false,
     [](const Draw&, const RunStats& s, const RunStats& r) {
       EXPECT_EQ(s.modeled_compute_s, r.modeled_compute_s);
       EXPECT_EQ(s.modeled_comm_s, r.modeled_comm_s);
       EXPECT_EQ(s.modeled_overhead_s, r.modeled_overhead_s);
       EXPECT_EQ(s.modeled_overlap_hidden_s, r.modeled_overlap_hidden_s);
     }},
    {"sync_mode -> bsp",
     [](const core::Config& c) {
       return c.sync_mode != core::SyncMode::kBspBarrier;
     },
     [](core::Config& c) { c.sync_mode = core::SyncMode::kBspBarrier; },
     kWorkCounters, false,
     [](const Draw& d, const RunStats& s, const RunStats& r) {
       EXPECT_EQ(r.modeled_overlap_hidden_s, 0.0);
       // One host barrier per superstep instead of two.
       if (d.gpus >= 2) {
         EXPECT_LT(s.modeled_overhead_s, r.modeled_overhead_s);
       }
     }},
    {"scheme -> prealloc+fusion",
     [](const core::Config& c) {
       return c.scheme != vgpu::AllocationScheme::kPreallocFusion;
     },
     [](core::Config& c) {
       c.scheme = vgpu::AllocationScheme::kPreallocFusion;
     },
     kByteCounters, false, nullptr},
    {"wire_format -> raw",
     [](const core::Config& c) {
       return c.wire_format != core::WireFormat::kRawIds;
     },
     [](core::Config& c) { c.wire_format = core::WireFormat::kRawIds; },
     kItemCounters, false,
     [](const Draw&, const RunStats& s, const RunStats& r) {
       EXPECT_EQ(r.wire_encode_vertices, 0u);
       EXPECT_EQ(r.wire_bytes_raw, r.total_comm_bytes);
       // An encoded message is always smaller than its raw form.
       if (s.wire_encode_vertices > 0) {
         EXPECT_LT(s.total_comm_bytes, r.total_comm_bytes);
       } else {
         EXPECT_LE(s.total_comm_bytes, r.total_comm_bytes);
       }
     }},
    {"two_level_combine -> off",
     [](const core::Config& c) { return c.two_level_combine; },
     [](core::Config& c) { c.two_level_combine = false; }, kItemCounters,
     false,
     [](const Draw&, const RunStats& s, const RunStats& flat) {
       EXPECT_EQ(flat.gateway_merges, 0u);
       EXPECT_EQ(flat.gateway_dedup_items, 0u);
       if (flat.inter_node_bytes > 0) {
         EXPECT_GT(s.gateway_merges, 0u);
       }
       // The merged payload drops duplicates and, unless the run is
       // raw, takes its smallest encoding, so the hop never ships more
       // than the flat pushes under any format.
       EXPECT_LE(s.inter_node_bytes, flat.inter_node_bytes);
     }},
    {"dense_threshold -> 0",
     [](const core::Config& c) { return c.dense_threshold != 0; },
     [](core::Config& c) { c.dense_threshold = 0; }, 0, true, nullptr},
};

}  // namespace

Outcome expect_holds(const graph::Graph& g, const Draw& d) {
  SCOPED_TRACE(describe(d));
  const Outcome drawn = run(g, d, d.cfg);
  expect_oracle(g, d, drawn);
  expect_run_invariants(d, drawn.stats);
  for (const Knob& knob : kKnobs) {
    if (!knob.away(d.cfg)) continue;
    SCOPED_TRACE(knob.name);
    core::Config cfg = d.cfg;
    knob.reset(cfg);
    // The rerun is a point of the space too.
    const Outcome reset = run(g, d, cfg);
    expect_run_invariants(d, reset.stats);
    expect_same_results(drawn, reset, knob.answer_only);
    for (int i = 0; i < knob.counters; ++i) {
      const auto& [name, field] = kCounters[i];
      EXPECT_EQ(drawn.stats.*field, reset.stats.*field) << name;
    }
    if (knob.also != nullptr) knob.also(d, drawn.stats, reset.stats);
  }
  return drawn;
}

graph::Graph family_graph(std::string_view family, std::uint64_t seed,
                          bool weighted) {
  graph::Graph g;
  if (family == "rmat") {
    g = graph::build_undirected(
        graph::make_rmat(8, 6, graph::RmatParams::gtgraph(), seed));
  } else if (family == "social") {
    g = graph::build_undirected(graph::make_social(500, 6, seed));
  } else if (family == "web") {
    g = graph::build_undirected(graph::make_web(10, 40, 6, 0.15, seed));
  } else if (family == "grid") {
    g = graph::build_undirected(graph::make_road_grid(16, 16, 0.05, seed));
  } else {
    g = graph::build_undirected(graph::make_uniform_random(600, 4000, seed));
  }
  if (weighted && !g.has_values()) {
    g.edge_values.resize(g.num_edges);
    for (VertexT v = 0; v < g.num_vertices; ++v) {
      const auto [begin, end] = g.edge_range(v);
      for (SizeT e = begin; e < end; ++e) {
        const VertexT u = g.col_indices[e];
        g.edge_values[e] = static_cast<ValueT>(
            1 + util::splitmix64(std::min(v, u) * 131071ull +
                                 std::max(v, u)) %
                    16);
      }
    }
  }
  return g;
}

namespace {

constexpr std::uint64_t kSuiteSeed = 5;
// Three full passes over every (primitive, shape) pair take 312 draws;
// the suite keeps its 351 draw indices, so the last 39 start a fourth.
constexpr int kDraws = 351;

struct Shape {
  int gpus;
  int nodes;
};
constexpr Shape kShapes[] = {{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1},
                             {6, 1}, {7, 1}, {8, 1}, {2, 2}, {4, 2},
                             {6, 3}, {8, 2}, {8, 4}};
static_assert(kDraws >= 3 * kNumPrims * static_cast<int>(std::size(kShapes)));

constexpr core::SyncMode kSyncs[] = {core::SyncMode::kBspBarrier,
                                     core::SyncMode::kEventPipeline};
constexpr core::WireFormat kWires[] = {
    core::WireFormat::kRawIds, core::WireFormat::kBitmap,
    core::WireFormat::kDeltaVarint, core::WireFormat::kAuto};
constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr vgpu::AllocationScheme kSchemes[] = {
    vgpu::AllocationScheme::kPreallocFusion,
    vgpu::AllocationScheme::kJustEnough,
    vgpu::AllocationScheme::kFixedPrealloc, vgpu::AllocationScheme::kMax};
constexpr double kDenseThresholds[] = {0, 0.05};
constexpr const char* kFamilies[] = {"rmat", "social", "web", "grid",
                                     "uniform"};
constexpr const char* kPartitioners[] = {"random", "biasrandom", "metis",
                                         "chunk"};
constexpr int kWidths[] = {1, 7, 64};

// The drawn dimensions, differential knobs first, and their sizes.
enum Dim {
  kSync, kWire, kTwoLevel, kThreads, kScheme, kDense,
  kShape, kFamily, kPartitioner, kDuplication, kComm, kPreds, kWidth,
  kDims
};
constexpr int kDifferential = kDense + 1;
constexpr const char* kDimNames[kDims] = {
    "sync_mode", "wire_format", "two_level_combine", "host_threads",
    "scheme", "dense_threshold", "shape", "family", "partitioner",
    "duplication", "comm", "mark_predecessors", "batch width"};
constexpr int size_of(const auto& values) {
  return static_cast<int>(std::size(values));
}
constexpr int kDimSize[kDims] = {
    size_of(kSyncs),        size_of(kWires),    2,
    size_of(kThreadCounts), size_of(kSchemes),  size_of(kDenseThresholds),
    size_of(kShapes),       size_of(kFamilies), size_of(kPartitioners),
    2,                      2,                  2,
    size_of(kWidths)};

bool batched(Prim p) { return p == Prim::kMsBfs || p == Prim::kMsSssp; }
bool weighted(Prim p) { return p == Prim::kSssp || p == Prim::kMsSssp; }

/// Whether dimension `dim` is drawn for `p`: DOBFS, CC and BC fix their
/// duplication and comm strategy, predecessors are drawn for BFS and
/// batch widths for MsBfs/MsSssp only.
bool applies(Prim p, int dim) {
  const bool dup_free = p == Prim::kBfs || p == Prim::kSssp ||
                        p == Prim::kPr || batched(p);
  switch (dim) {
    case kDuplication:
    case kComm:
      return dup_free;
    case kPreds:
      return p == Prim::kBfs;
    case kWidth:
      return batched(p);
    default:
      return true;
  }
}

/// One draw before its graph exists: enough to enumerate coverage.
struct Sample {
  std::uint64_t seed = 0;
  Prim prim = Prim::kBfs;
  std::array<int, kDims> at{};  ///< value index per dim; -1: not drawn
  bool duplicate_sources = false;
  std::uint64_t graph_seed = 0;
  std::uint64_t source_seed = 0;
};

Sample make_sample(int i) {
  Sample s;
  s.seed = util::splitmix64(kSuiteSeed * 0x9e3779b97f4a7c15ull +
                            static_cast<std::uint64_t>(i));
  util::Rng rng(s.seed);
  s.prim = static_cast<Prim>(i % kNumPrims);
  s.at.fill(-1);
  for (int dim = 0; dim < kDims; ++dim) {
    // Broadcast needs every vertex duplicated on every GPU.
    if (!applies(s.prim, dim) || (dim == kComm && s.at[kDuplication] != 0)) {
      continue;
    }
    s.at[dim] = dim == kShape
                    ? i % kDimSize[kShape]
                    : static_cast<int>(rng.next_below(kDimSize[dim]));
  }
  s.duplicate_sources = batched(s.prim) && rng.next_bool(0.5);
  s.graph_seed = rng.next_u64();
  s.source_seed = rng.next_u64();
  return s;
}

Draw make_draw(const Sample& s, const graph::Graph& g) {
  Draw d;
  d.prim = s.prim;
  d.gpus = kShapes[s.at[kShape]].gpus;
  d.nodes = kShapes[s.at[kShape]].nodes;
  core::Config& c = d.cfg;
  c.sync_mode = kSyncs[s.at[kSync]];
  c.wire_format = kWires[s.at[kWire]];
  c.two_level_combine = s.at[kTwoLevel] == 1;
  c.host_threads = kThreadCounts[s.at[kThreads]];
  c.scheme = kSchemes[s.at[kScheme]];
  c.dense_threshold = kDenseThresholds[s.at[kDense]];
  c.partitioner = kPartitioners[s.at[kPartitioner]];
  if (s.at[kDuplication] == 1) c.duplication = part::Duplication::kOneHop;
  if (s.at[kComm] == 1) c.comm = core::CommStrategy::kBroadcast;
  c.mark_predecessors = s.at[kPreds] == 1;
  util::Rng rng(s.source_seed);
  if (batched(s.prim)) {
    d.sources.resize(static_cast<std::size_t>(kWidths[s.at[kWidth]]));
    for (std::size_t i = 0; i < d.sources.size(); ++i) {
      d.sources[i] = s.duplicate_sources && i > 0 && rng.next_bool(0.5)
                         ? d.sources[rng.next_below(i)]
                         : static_cast<VertexT>(rng.next_below(g.num_vertices));
    }
  } else {
    // A random source with an edge, when one turns up quickly.
    VertexT src = first_connected_vertex(g);
    for (int tries = 0; tries < 8; ++tries) {
      const auto v = static_cast<VertexT>(rng.next_below(g.num_vertices));
      if (g.degree(v) > 0) {
        src = v;
        break;
      }
    }
    d.sources = {src};
  }
  return d;
}

class ConfigSpace : public ::testing::TestWithParam<int> {};

TEST_P(ConfigSpace, Holds) {
  const Sample s = make_sample(GetParam());
  const char* family = kFamilies[s.at[kFamily]];
  SCOPED_TRACE("draw " + std::to_string(GetParam()) + " (seed " +
               std::to_string(s.seed) + ") on " + family + " graph seed " +
               std::to_string(s.graph_seed));
  const graph::Graph g = family_graph(family, s.graph_seed, weighted(s.prim));
  expect_holds(g, make_draw(s, g));
}

INSTANTIATE_TEST_SUITE_P(Draws, ConfigSpace, ::testing::Range(0, kDraws));

TEST(ConfigSpace, DrawsCoverEveryKnobPair) {
  std::vector<Sample> samples;
  for (int i = 0; i < kDraws; ++i) samples.push_back(make_sample(i));
  const auto occurs = [&](auto&& pred) {
    return std::ranges::any_of(samples, pred);
  };
  for (int p = 0; p < kNumPrims; ++p) {
    const auto prim = static_cast<Prim>(p);
    for (int dim = 0; dim < kDims; ++dim) {
      if (!applies(prim, dim)) continue;
      for (int v = 0; v < kDimSize[dim]; ++v) {
        EXPECT_TRUE(occurs([&](const Sample& s) {
          return s.prim == prim && s.at[dim] == v;
        })) << kPrimNames[p] << " never meets " << kDimNames[dim] << " #" << v;
      }
    }
    EXPECT_TRUE(occurs([&](const Sample& s) {
      return s.prim == prim && s.at[kTwoLevel] == 1 &&
             kShapes[s.at[kShape]].nodes > 1;
    })) << kPrimNames[p] << " never runs two-level on a cluster";
    if (batched(prim)) {
      EXPECT_TRUE(occurs([&](const Sample& s) {
        return s.prim == prim && s.duplicate_sources && s.at[kWidth] > 0;
      })) << kPrimNames[p] << " never batches duplicate sources";
    }
  }
  for (int a = 0; a < kDifferential; ++a) {
    for (int b = a + 1; b < kDifferential; ++b) {
      for (int va = 0; va < kDimSize[a]; ++va) {
        for (int vb = 0; vb < kDimSize[b]; ++vb) {
          EXPECT_TRUE(occurs([&](const Sample& s) {
            return s.at[a] == va && s.at[b] == vb;
          })) << kDimNames[a] << " #" << va << " never meets "
              << kDimNames[b] << " #" << vb;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mgg::test::space
