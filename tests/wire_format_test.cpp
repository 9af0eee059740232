// Differential + adversarial tests for the compressed wire formats
// (core/comm.hpp WireFormat: kRawIds / kBitmap / kDeltaVarint / kAuto).
//
// The formats' contract is *order-preserving losslessness*: decode
// reconstructs the exact vertex sequence the packager produced, so
// results, frontiers, and every W/H item count must be bit-identical
// to kRawIds across both sync schedules and every GPU count — only
// bytes-on-wire (total_comm_bytes, modeled comm time) and the modeled
// encode/decode kernel charges (total_vertices, total_launches) may
// differ. These tests pin that contract, the density heuristic's
// fallback chain, and the adversarial encoder inputs the varint/bitmap
// paths must survive.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/comm.hpp"
#include "core/enactor.hpp"
#include "core/frontier.hpp"
#include "core/problem.hpp"
#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/sssp.hpp"
#include "test_support.hpp"
#include "util/random.hpp"
#include "vgpu/cost.hpp"

namespace mgg {
namespace {

using core::Message;
using core::WireFormat;

constexpr WireFormat kAllFormats[] = {
    WireFormat::kRawIds, WireFormat::kBitmap, WireFormat::kDeltaVarint,
    WireFormat::kAuto};

core::Config wire_config(int gpus, WireFormat f, core::SyncMode mode) {
  core::Config cfg = test::config_for(gpus);
  cfg.wire_format = f;
  cfg.sync_mode = mode;
  return cfg;
}

/// The counters required invariant across wire formats: everything
/// item-shaped. Bytes, vertex work, and launches legitimately move
/// (encoded payloads are smaller; encode/decode are extra kernels).
void expect_same_items(const vgpu::RunStats& base, const vgpu::RunStats& got,
                       const std::string& label) {
  EXPECT_EQ(base.iterations, got.iterations) << label;
  EXPECT_EQ(base.total_edges, got.total_edges) << label;
  EXPECT_EQ(base.total_comm_items, got.total_comm_items) << label;
  EXPECT_EQ(base.total_combine_items, got.total_combine_items) << label;
}

/// Three-way byte split always sums to the total pushed.
void expect_bytes_partition(const vgpu::RunStats& s,
                            const std::string& label) {
  EXPECT_EQ(s.wire_bytes_raw + s.wire_bytes_bitmap + s.wire_bytes_delta,
            s.total_comm_bytes)
      << label;
  // Everything encoded is decoded exactly once, transparently.
  EXPECT_EQ(s.wire_encode_vertices, s.wire_decode_vertices) << label;
}

// ---------------------------------------------------------------------
// Differential: results + item counts + per-iteration frontiers across
// {raw, bitmap, varint, auto} x {BSP, pipeline} x 1..8 vGPUs.
// ---------------------------------------------------------------------

TEST(WireFormat, BfsBitIdenticalAcrossFormatsModesAndWidths) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  for (const int gpus : {1, 2, 4, 8}) {
    for (const core::SyncMode mode :
         {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
      core::Config ref_cfg = wire_config(gpus, WireFormat::kRawIds, mode);
      ref_cfg.mark_predecessors = true;
      auto m_ref = test::test_machine(gpus);
      const auto base = prim::run_bfs(g, src, m_ref, ref_cfg);
      for (const WireFormat f :
           {WireFormat::kBitmap, WireFormat::kDeltaVarint,
            WireFormat::kAuto}) {
        auto m = test::test_machine(gpus);
        core::Config cfg = wire_config(gpus, f, mode);
        cfg.mark_predecessors = true;
        const auto got = prim::run_bfs(g, src, m, cfg);
        const std::string label = "gpus=" + std::to_string(gpus) + " mode=" +
                                  to_string(mode) + " fmt=" + to_string(f);
        EXPECT_EQ(base.labels, got.labels) << label;
        EXPECT_EQ(base.preds, got.preds) << label;
        expect_same_items(base.stats, got.stats, label);
        expect_bytes_partition(got.stats, label);
        // Compressed formats never ship more bytes than raw (the
        // encoder falls back to raw when compression would inflate).
        EXPECT_LE(got.stats.total_comm_bytes, base.stats.total_comm_bytes)
            << label;
      }
    }
  }
}

TEST(WireFormat, SsspBitIdenticalAcrossFormatsAndModes) {
  // SSSP's intra-iteration relaxations are emission-order sensitive:
  // any within-message reorder would change the emitted frontier and
  // with it H. Exact equality here proves the encodings preserve
  // order, not just membership.
  const auto g = test::small_weighted_rmat();
  const VertexT src = test::first_connected_vertex(g);
  for (const int gpus : {3, 6}) {
    for (const core::SyncMode mode :
         {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
      auto m_ref = test::test_machine(gpus);
      const auto base = prim::run_sssp(
          g, src, m_ref, wire_config(gpus, WireFormat::kRawIds, mode));
      for (const WireFormat f : {WireFormat::kDeltaVarint, WireFormat::kAuto}) {
        auto m = test::test_machine(gpus);
        const auto got = prim::run_sssp(g, src, m, wire_config(gpus, f, mode));
        const std::string label = "gpus=" + std::to_string(gpus) + " mode=" +
                                  to_string(mode) + " fmt=" + to_string(f);
        EXPECT_EQ(base.dist, got.dist) << label;
        EXPECT_EQ(base.preds, got.preds) << label;
        expect_same_items(base.stats, got.stats, label);
        expect_bytes_partition(got.stats, label);
      }
    }
  }
}

TEST(WireFormat, PagerankBitIdenticalAcrossFormatsAndModes) {
  // PR's communicate() override routes border accumulators itself (the
  // primitive-owned encode call path); float ranks make any combine
  // reorder visible as an FP-addition-order difference.
  const auto g = test::small_rmat();
  for (const int gpus : {4, 6}) {
    for (const core::SyncMode mode :
         {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
      auto m_ref = test::test_machine(gpus);
      const auto base = prim::run_pagerank(
          g, m_ref, wire_config(gpus, WireFormat::kRawIds, mode));
      for (const WireFormat f :
           {WireFormat::kBitmap, WireFormat::kDeltaVarint,
            WireFormat::kAuto}) {
        auto m = test::test_machine(gpus);
        const auto got =
            prim::run_pagerank(g, m, wire_config(gpus, f, mode));
        const std::string label = "gpus=" + std::to_string(gpus) + " mode=" +
                                  to_string(mode) + " fmt=" + to_string(f);
        EXPECT_EQ(base.rank, got.rank) << label;
        expect_same_items(base.stats, got.stats, label);
        expect_bytes_partition(got.stats, label);
      }
    }
  }
}

TEST(WireFormat, BcBitIdenticalAcrossFormats) {
  // BC pushes three tagged message kinds (sigma partials, finalized-
  // level broadcasts, delta partials), all through the primitive-owned
  // encode calls.
  const auto g = test::small_rmat(7, 6);
  const VertexT src = test::first_connected_vertex(g);
  for (const core::SyncMode mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    auto m_ref = test::test_machine(4);
    const auto base = prim::run_bc(
        g, m_ref, wire_config(4, WireFormat::kRawIds, mode), {src});
    for (const WireFormat f : {WireFormat::kDeltaVarint, WireFormat::kAuto}) {
      auto m = test::test_machine(4);
      const auto got = prim::run_bc(g, m, wire_config(4, f, mode), {src});
      const std::string label =
          std::string("mode=") + to_string(mode) + " fmt=" + to_string(f);
      EXPECT_EQ(base.bc, got.bc) << label;
      EXPECT_EQ(base.total_iterations, got.total_iterations) << label;
      expect_same_items(base.stats, got.stats, label);
      expect_bytes_partition(got.stats, label);
    }
  }
}

TEST(WireFormat, PerIterationFrontiersIdenticalUnderAuto) {
  // Per-superstep frontier evolution, not just whole-run totals: the
  // iteration records of a dense-capable BFS must match entry for
  // entry between raw and auto (bitmap engages on the dense middle
  // supersteps).
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  for (const core::SyncMode mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    std::vector<std::vector<vgpu::IterationRecord>> records;
    for (const WireFormat f : {WireFormat::kRawIds, WireFormat::kAuto}) {
      auto machine = test::test_machine(4);
      core::Config cfg = wire_config(4, f, mode);
      cfg.dense_threshold = 0.05;  // engage dense advances -> ascending
      prim::BfsProblem problem;
      problem.init(g, machine, cfg);
      prim::BfsEnactor enactor(problem);
      enactor.reset(src);
      enactor.enact();
      records.push_back(enactor.iteration_records());
    }
    ASSERT_EQ(records[0].size(), records[1].size()) << to_string(mode);
    for (std::size_t i = 0; i < records[0].size(); ++i) {
      EXPECT_EQ(records[0][i].frontier_total, records[1][i].frontier_total)
          << to_string(mode) << " iteration " << i;
      EXPECT_EQ(records[0][i].comm_items, records[1][i].comm_items)
          << to_string(mode) << " iteration " << i;
      EXPECT_EQ(records[0][i].edges, records[1][i].edges)
          << to_string(mode) << " iteration " << i;
    }
  }
}

TEST(WireFormat, AutoOnDenseBfsUsesBothFormatsAndShrinksBytes) {
  // Non-vacuous compression: with dense frontiers enabled, kAuto must
  // exercise *both* compressed formats in one run (bitmap on the dense
  // middle supersteps, varint on the sparse fringes) and strictly
  // reduce bytes on the wire at identical item counts.
  const auto g = test::small_rmat(10, 16);
  const VertexT src = test::first_connected_vertex(g);
  auto m_raw = test::test_machine(4);
  auto m_auto = test::test_machine(4);
  core::Config raw_cfg = wire_config(4, WireFormat::kRawIds,
                                     core::SyncMode::kBspBarrier);
  raw_cfg.dense_threshold = 0.05;
  core::Config auto_cfg = raw_cfg;
  auto_cfg.wire_format = WireFormat::kAuto;
  const auto raw = prim::run_bfs(g, src, m_raw, raw_cfg);
  const auto comp = prim::run_bfs(g, src, m_auto, auto_cfg);
  EXPECT_EQ(raw.labels, comp.labels);
  expect_same_items(raw.stats, comp.stats, "auto");
  expect_bytes_partition(comp.stats, "auto");
  EXPECT_GT(comp.stats.wire_bytes_bitmap, 0u);
  EXPECT_GT(comp.stats.wire_bytes_delta, 0u);
  EXPECT_LT(comp.stats.total_comm_bytes, raw.stats.total_comm_bytes);
  // Raw runs report all bytes as raw and never touch the codecs.
  EXPECT_EQ(raw.stats.wire_bytes_raw, raw.stats.total_comm_bytes);
  EXPECT_EQ(raw.stats.wire_encode_vertices, 0u);
  EXPECT_EQ(raw.stats.wire_decode_vertices, 0u);
}

// ---------------------------------------------------------------------
// Adversarial encoder inputs (the satellite list: empty bucket, single
// vertex, max-ID vertex, all-vertices-dense) + the fallback chain.
// ---------------------------------------------------------------------

Message make_msg(std::vector<VertexT> vertices) {
  Message msg;
  msg.set_layout(0, 0, vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    msg.vertices[i] = vertices[i];
  }
  return msg;
}

/// Encode under `requested`, assert the applied format, decode, and
/// require the exact original sequence back.
void round_trip(std::vector<VertexT> vertices, WireFormat requested,
                WireFormat expect_applied, std::size_t universe = 1u << 20) {
  Message msg = make_msg(vertices);
  const std::size_t raw_bytes = vertices.size() * sizeof(VertexT);
  const WireFormat applied =
      core::wire::encode(msg, requested, 1.0 / 16, universe);
  EXPECT_EQ(applied, expect_applied)
      << "requested=" << to_string(requested) << " n=" << vertices.size();
  EXPECT_EQ(msg.size(), vertices.size());
  if (applied != WireFormat::kRawIds) {
    EXPECT_LT(msg.wire.size(), raw_bytes) << "compression must not inflate";
    EXPECT_EQ(msg.payload_bytes(), msg.wire.size());
  }
  core::wire::decode(msg);
  EXPECT_EQ(msg.encoding, WireFormat::kRawIds);
  ASSERT_EQ(msg.vertices.size(), vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    EXPECT_EQ(msg.vertices[i], vertices[i]) << "position " << i;
  }
}

TEST(WireFormat, EncodeEmptyBucketIsRawNoop) {
  for (const WireFormat f : kAllFormats) {
    Message msg = make_msg({});
    EXPECT_EQ(core::wire::encode(msg, f, 1.0 / 16, 1024),
              WireFormat::kRawIds);
    EXPECT_TRUE(msg.empty());
    EXPECT_EQ(msg.wire.size(), 0u);
  }
}

TEST(WireFormat, EncodeSingleVertexRoundTrips) {
  // 1 vertex = 4 raw bytes; varint of a small ID beats it, a bitmap
  // never can (8-byte header alone exceeds raw) and must fall back.
  round_trip({5}, WireFormat::kDeltaVarint, WireFormat::kDeltaVarint);
  round_trip({0}, WireFormat::kDeltaVarint, WireFormat::kDeltaVarint);
  round_trip({5}, WireFormat::kBitmap, WireFormat::kDeltaVarint);
}

TEST(WireFormat, EncodeMaxIdVertexRoundTrips) {
  // The 32-bit ceiling exercises the varint's 5-byte codes and the
  // zigzag sign handling on the descent; a forced bitmap over an ID
  // range this large would dwarf raw and must fall back.
  const VertexT max_id = 0xFFFFFFFFu;
  round_trip({max_id}, WireFormat::kDeltaVarint, WireFormat::kRawIds);
  round_trip({0, max_id, 1, max_id - 1}, WireFormat::kDeltaVarint,
             WireFormat::kRawIds);
  round_trip({0, 1, 2, 3, 4, 5, 6, max_id}, WireFormat::kDeltaVarint,
             WireFormat::kDeltaVarint);
  round_trip({0, 1, 2, max_id}, WireFormat::kBitmap,
             WireFormat::kDeltaVarint);
}

TEST(WireFormat, EncodeAllVerticesDenseUsesBitmap) {
  // The canonical dense superstep: every vertex of the universe, in
  // ascending order. universe bits <<< universe * 4 bytes.
  std::vector<VertexT> all(4096);
  std::iota(all.begin(), all.end(), 0u);
  round_trip(all, WireFormat::kBitmap, WireFormat::kBitmap, all.size());
  round_trip(all, WireFormat::kAuto, WireFormat::kBitmap, all.size());
  // Partial-word tail: a universe not divisible by 64.
  std::vector<VertexT> odd(1000 - 17);
  std::iota(odd.begin(), odd.end(), 17u);
  round_trip(odd, WireFormat::kBitmap, WireFormat::kBitmap, 1000);
}

TEST(WireFormat, BitmapFallsBackOnNonAscendingInput) {
  // Bitmap decode emits ascending order; a non-ascending sequence
  // must reroute to the order-preserving varint, never reorder.
  round_trip({9, 3, 7, 1}, WireFormat::kBitmap, WireFormat::kDeltaVarint);
  // Duplicates: a bitmap would silently merge them (item-count loss).
  round_trip({4, 4, 4, 9, 2, 2, 100, 3}, WireFormat::kBitmap,
             WireFormat::kDeltaVarint);
  round_trip({4, 4, 4, 9, 2, 2, 100, 3}, WireFormat::kAuto,
             WireFormat::kDeltaVarint, /*universe=*/8);
}

TEST(WireFormat, VarintFallsBackToRawWhenCompressionInflates) {
  // Alternating extremes make every zigzag delta ~5 bytes > 4 raw.
  std::vector<VertexT> hostile;
  for (int i = 0; i < 64; ++i) {
    hostile.push_back(i % 2 == 0 ? 0xFFFFFFF0u + (i & 3) : i);
  }
  Message msg = make_msg(hostile);
  EXPECT_EQ(core::wire::encode(msg, WireFormat::kDeltaVarint, 1.0 / 16,
                               1u << 20),
            WireFormat::kRawIds);
  // The message is untouched raw — no wire buffer, vertices intact.
  EXPECT_EQ(msg.encoding, WireFormat::kRawIds);
  ASSERT_EQ(msg.vertices.size(), hostile.size());
  EXPECT_EQ(msg.vertices[1], hostile[1]);
}

TEST(WireFormat, AutoHeuristicPicksBitmapOnlyWhenDense) {
  std::vector<VertexT> sparse = {0, 100, 5000, 90000};
  round_trip(sparse, WireFormat::kAuto, WireFormat::kDeltaVarint,
             /*universe=*/1u << 20);
  std::vector<VertexT> dense(512);
  std::iota(dense.begin(), dense.end(), 0u);
  for (auto& v : dense) v *= 2;  // every other vertex of a 1024 universe
  round_trip(dense, WireFormat::kAuto, WireFormat::kBitmap,
             /*universe=*/1024);
}

TEST(WireFormat, ClusterUniverseDensityEvaluation) {
  // Cluster topology case: the two-level combine (§14) re-encodes a
  // gateway's merged payload against the destination *node's* hosted
  // universe (sum over its GPUs) rather than one GPU's. The codecs'
  // contract must hold for either universe: the decoded sequence is
  // identical no matter which universe judged the density, and when a
  // sequence is dense under both universes the format decision matches
  // too. Model a 4-GPU node with 1024 hosted vertices per GPU.
  constexpr std::size_t kGpuUniverse = 1024;
  constexpr std::size_t kNodeUniverse = 4 * kGpuUniverse;

  // Dense under both universes (every vertex of the first GPU's range):
  // 1024 / 1024 and 1024 / 4096 both clear the 1/16 threshold, so both
  // evaluations pick bitmap, and decode returns the same sequence.
  std::vector<VertexT> dense(kGpuUniverse);
  std::iota(dense.begin(), dense.end(), 0u);
  round_trip(dense, WireFormat::kAuto, WireFormat::kBitmap, kGpuUniverse);
  round_trip(dense, WireFormat::kAuto, WireFormat::kBitmap, kNodeUniverse);

  // Sparse under both: varint either way, and the varint stream does
  // not depend on the universe at all — byte-identical wires.
  const std::vector<VertexT> sparse = {3, 97, 511, 700, 2048, 4000};
  Message a = make_msg(sparse);
  Message b = make_msg(sparse);
  EXPECT_EQ(core::wire::encode(a, WireFormat::kAuto, 1.0 / 16, kGpuUniverse),
            WireFormat::kDeltaVarint);
  EXPECT_EQ(core::wire::encode(b, WireFormat::kAuto, 1.0 / 16, kNodeUniverse),
            WireFormat::kDeltaVarint);
  ASSERT_EQ(a.wire.size(), b.wire.size());
  for (std::size_t i = 0; i < a.wire.size(); ++i) {
    EXPECT_EQ(a.wire[i], b.wire[i]) << "varint byte " << i;
  }
  core::wire::decode(a);
  core::wire::decode(b);
  ASSERT_EQ(a.vertices.size(), sparse.size());
  ASSERT_EQ(b.vertices.size(), sparse.size());
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_EQ(a.vertices[i], sparse[i]);
    EXPECT_EQ(b.vertices[i], sparse[i]);
  }

  // The boundary case: 128 vertices is 128/1024 = 1/8 dense for one
  // GPU (bitmap) but 128/4096 = 1/32 for the node (varint). The
  // *decision* legitimately differs — the *decoded result* must not.
  std::vector<VertexT> boundary(128);
  std::iota(boundary.begin(), boundary.end(), 0u);
  for (auto& v : boundary) v *= 8;  // ascending, spread over the GPU range
  round_trip(boundary, WireFormat::kAuto, WireFormat::kBitmap, kGpuUniverse);
  round_trip(boundary, WireFormat::kAuto, WireFormat::kDeltaVarint,
             kNodeUniverse);
}

TEST(WireFormat, DecodeRejectsCorruptPayloads) {
  // Truncated varint stream.
  Message msg = make_msg({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  ASSERT_EQ(core::wire::encode(msg, WireFormat::kDeltaVarint, 1.0 / 16, 1024),
            WireFormat::kDeltaVarint);
  msg.wire.resize(msg.wire.size() - 2);
  EXPECT_THROW(core::wire::decode(msg), Error);

  // Bitmap popcount != header item count.
  std::vector<VertexT> dense(256);
  std::iota(dense.begin(), dense.end(), 0u);
  Message bm = make_msg(dense);
  ASSERT_EQ(core::wire::encode(bm, WireFormat::kBitmap, 1.0 / 16, 256),
            WireFormat::kBitmap);
  bm.wire[8] ^= 0xFF;  // flip 8 bits of the first word
  EXPECT_THROW(core::wire::decode(bm), Error);

  // Hand-built varint payloads: [varint n][zigzag delta varints].
  const auto varint_payload = [](std::size_t n,
                                 std::vector<std::uint8_t> bytes) {
    Message m;
    m.encoding = WireFormat::kDeltaVarint;
    m.wire_items = n;
    m.wire.assign(bytes.begin(), bytes.end());
    return m;
  };
  // A 10-byte code whose last byte carries bits past bit 63 (read as
  // vertex 6 if those bits are silently dropped).
  Message overlong = varint_payload(
      1, {0x01, 0x8C, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7E});
  EXPECT_THROW(core::wire::decode(overlong), Error);
  // A delta of INT64_MAX after vertex 5: the running sum must be
  // range-checked before it is formed, not after it overflows.
  Message overflow = varint_payload(
      2, {0x02, 0x0A, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
          0x01});
  EXPECT_THROW(core::wire::decode(overflow), Error);
}

TEST(WireFormat, DecodeSurvivesSeededMutations) {
  // Mutation fuzzing of wire::decode: valid bitmap and varint encodings,
  // each damaged by one byte flip, truncation, appended bytes or a
  // wire_items +-1 edit. Decode must return exactly wire_items vertices
  // or reject the payload with a typed Error; the sanitizer builds also
  // catch any out-of-bounds read or UB on the way.
  constexpr std::uint64_t kSeeds = 1000;  // x 4 mutations each
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    util::Rng rng(seed);
    const bool bitmap = rng.next_bool(0.5);
    std::vector<VertexT> ids(16 + rng.next_below(200));
    if (bitmap) {
      // Ascending and dense enough that the bitmap pays.
      VertexT v = static_cast<VertexT>(rng.next_below(64));
      for (auto& id : ids) {
        id = v;
        v += 1 + static_cast<VertexT>(rng.next_below(3));
      }
    } else {
      // Unordered IDs in a 2^14 window, anywhere below the VertexT
      // limit, so damaged deltas can leave the range at either end.
      const VertexT base = static_cast<VertexT>(
          rng.next_below(std::numeric_limits<VertexT>::max() - (1u << 14)));
      for (auto& id : ids) {
        id = base + static_cast<VertexT>(rng.next_below(1u << 14));
      }
    }
    Message valid = make_msg(ids);
    const WireFormat want =
        bitmap ? WireFormat::kBitmap : WireFormat::kDeltaVarint;
    ASSERT_EQ(core::wire::encode(valid, want, 1.0 / 16, 1u << 20), want)
        << "seed " << seed;
    for (int mutation = 0; mutation < 4; ++mutation) {
      Message m;
      m.encoding = valid.encoding;
      m.wire = valid.wire;
      m.wire_items = valid.wire_items;
      const std::size_t size = m.wire.size();
      switch (mutation) {
        case 0:  // flip some bits of one byte
          m.wire[rng.next_below(size)] ^=
              static_cast<std::uint8_t>(1 + rng.next_below(255));
          break;
        case 1:  // truncate
          m.wire.resize(rng.next_below(size));
          break;
        case 2:  // append 1-16 bytes
          for (std::uint64_t k = 1 + rng.next_below(16); k > 0; --k) {
            m.wire.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
          }
          break;
        default:  // the item count no longer matches the payload
          m.wire_items = rng.next_bool(0.5) ? m.wire_items + 1
                                            : m.wire_items - 1;
          break;
      }
      const std::size_t items = m.wire_items;
      try {
        core::wire::decode(m);
        EXPECT_EQ(m.vertices.size(), items)
            << "seed " << seed << ", mutation " << mutation;
      } catch (const Error&) {
        // A typed rejection is the other allowed outcome.
      } catch (const std::exception& e) {
        ADD_FAILURE() << "seed " << seed << ", mutation " << mutation
                      << ": untyped exception: " << e.what();
      }
    }
  }
}

TEST(WireFormat, PooledMessagesRecycleWireState) {
  // A recycled message must come back raw with no stale wire bytes —
  // otherwise a pooled buffer could leak a previous iteration's
  // encoding into a fresh push.
  auto machine = test::test_machine(2);
  core::CommBus bus(machine);
  {
    core::Message msg = bus.acquire();
    std::vector<VertexT> dense(256);
    std::iota(dense.begin(), dense.end(), 0u);
    msg.set_layout(0, 0, dense.size());
    for (std::size_t i = 0; i < dense.size(); ++i) msg.vertices[i] = dense[i];
    ASSERT_EQ(core::wire::encode(msg, WireFormat::kBitmap, 1.0 / 16, 256),
              WireFormat::kBitmap);
    bus.release(std::move(msg));
  }
  core::Message back = bus.acquire();
  EXPECT_EQ(back.encoding, WireFormat::kRawIds);
  EXPECT_EQ(back.wire.size(), 0u);
  EXPECT_EQ(back.wire_items, 0u);
  EXPECT_TRUE(back.empty());
}

TEST(WireFormat, ParseAndToStringRoundTrip) {
  EXPECT_EQ(core::parse_wire_format("raw"), WireFormat::kRawIds);
  EXPECT_EQ(core::parse_wire_format("bitmap"), WireFormat::kBitmap);
  EXPECT_EQ(core::parse_wire_format("varint"), WireFormat::kDeltaVarint);
  EXPECT_EQ(core::parse_wire_format("delta_varint"),
            WireFormat::kDeltaVarint);
  EXPECT_EQ(core::parse_wire_format("auto"), WireFormat::kAuto);
  for (const WireFormat f : kAllFormats) {
    EXPECT_EQ(core::parse_wire_format(to_string(f)), f);
  }
  EXPECT_THROW(core::parse_wire_format("gzip"), Error);
  EXPECT_THROW(core::parse_wire_format(""), Error);
}

// ---------------------------------------------------------------------
// Latent-bug regression: Frontier::swap() must retire the output
// side's dense flag with the buffer (pre-fix, a stale flag made
// for_each_output re-emit the retired frontier's mask bits, since the
// dense path ignores output_size_).
// ---------------------------------------------------------------------

TEST(WireFormat, FrontierSwapClearsStaleDenseOutputFlag) {
  auto machine = test::test_machine(1);
  core::Frontier frontier;
  frontier.init(machine.device(0), vgpu::AllocationScheme::kPreallocFusion,
                /*num_vertices=*/64, /*num_edges=*/256);
  const VertexT seed[] = {1, 5, 9};
  frontier.set_input(seed);
  ASSERT_TRUE(frontier.input_to_dense());
  // An iteration that commits nothing without touching the output
  // queue (no request_output / dense_output call).
  frontier.commit_output(0);
  frontier.swap();
  EXPECT_FALSE(frontier.output_dense());
  EXPECT_EQ(frontier.output_size(), 0u);
  std::size_t visited = 0;
  frontier.for_each_output([&](VertexT) { ++visited; });
  EXPECT_EQ(visited, 0u) << "stale dense mask bits re-emitted after swap";
}

}  // namespace
}  // namespace mgg
