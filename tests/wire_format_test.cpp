// Differential + adversarial tests for the compressed wire formats
// (core/comm.hpp WireFormat: kRawIds / kBitmap / kDeltaVarint / kAuto).
//
// The formats' contract is *order-preserving losslessness*: decode
// reconstructs the exact vertex sequence the packager produced, so
// results, frontiers, and every W/H item count must be bit-identical
// to kRawIds across both sync schedules and every GPU count — only
// bytes-on-wire (total_comm_bytes, modeled comm time) and the modeled
// encode/decode kernel charges (total_vertices, total_launches) may
// differ. These tests pin that contract, kAuto's smallest-encoding
// choice, the fallback chain, and the adversarial encoder inputs the
// varint/bitmap paths must survive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "config_space.hpp"
#include "core/comm.hpp"
#include "core/enactor.hpp"
#include "core/frontier.hpp"
#include "core/problem.hpp"
#include "primitives/bfs.hpp"
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

// ---------------------------------------------------------------------
// Differential: each draw of `d` reruns under raw and must keep results,
// item counts and the byte partitions, shipping no more bytes than raw
// (tests/config_space.hpp).
// ---------------------------------------------------------------------

void expect_formats_hold(const graph::Graph& g, test::space::Draw d,
                         std::initializer_list<int> widths,
                         std::initializer_list<WireFormat> formats) {
  for (const int gpus : widths) {
    for (const core::SyncMode mode :
         {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
      for (const WireFormat f : formats) {
        d.gpus = gpus;
        d.cfg.sync_mode = mode;
        d.cfg.wire_format = f;
        test::space::expect_holds(g, d);
      }
    }
  }
}

TEST(WireFormat, BfsBitIdenticalAcrossFormatsModesAndWidths) {
  expect_formats_hold(test::small_rmat(), {.cfg = {.mark_predecessors = true}},
                      {1, 2, 4, 8},
                      {WireFormat::kBitmap, WireFormat::kDeltaVarint,
                       WireFormat::kAuto});
}

TEST(WireFormat, SsspBitIdenticalAcrossFormatsAndModes) {
  // SSSP's intra-iteration relaxations are emission-order sensitive:
  // any within-message reorder would change the emitted frontier and
  // with it H.
  expect_formats_hold(test::small_weighted_rmat(),
                      {.prim = test::space::Prim::kSssp}, {3, 6},
                      {WireFormat::kDeltaVarint, WireFormat::kAuto});
}

TEST(WireFormat, PagerankBitIdenticalAcrossFormatsAndModes) {
  // PR's communicate() override encodes its border accumulators itself;
  // float ranks make any combine reorder visible.
  expect_formats_hold(test::small_rmat(), {.prim = test::space::Prim::kPr},
                      {4, 6},
                      {WireFormat::kBitmap, WireFormat::kDeltaVarint,
                       WireFormat::kAuto});
}

TEST(WireFormat, BcBitIdenticalAcrossFormats) {
  // BC encodes three tagged message kinds (sigma partials, finalized-
  // level broadcasts, delta partials) itself.
  expect_formats_hold(test::small_rmat(7, 6), {.prim = test::space::Prim::kBc},
                      {4}, {WireFormat::kDeltaVarint, WireFormat::kAuto});
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
  // middle supersteps, varint on the sparse fringes); the draw's raw
  // rerun keeps results and item counts and ships strictly more bytes.
  const auto run = test::space::expect_holds(
      test::small_rmat(10, 16),
      {.gpus = 4,
       .cfg = {.dense_threshold = 0.05, .wire_format = WireFormat::kAuto}});
  EXPECT_GT(run.stats.wire_bytes_bitmap, 0u);
  EXPECT_GT(run.stats.wire_bytes_delta, 0u);
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
                WireFormat expect_applied) {
  Message msg = make_msg(vertices);
  const std::size_t raw_bytes = vertices.size() * sizeof(VertexT);
  const WireFormat applied = core::wire::encode(msg, requested);
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
    EXPECT_EQ(core::wire::encode(msg, f),
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
  // The canonical dense superstep: every vertex of a range, ascending.
  std::vector<VertexT> all(4096);
  std::iota(all.begin(), all.end(), 0u);
  round_trip(all, WireFormat::kBitmap, WireFormat::kBitmap);
  round_trip(all, WireFormat::kAuto, WireFormat::kBitmap);
  // Partial-word tail: a range not divisible by 64.
  std::vector<VertexT> odd(1000 - 17);
  std::iota(odd.begin(), odd.end(), 17u);
  round_trip(odd, WireFormat::kBitmap, WireFormat::kBitmap);
  // A tie goes to the bitmap: 15 IDs below 64 cost 16 bytes either way.
  std::vector<VertexT> tie(15);
  std::iota(tie.begin(), tie.end(), 0u);
  round_trip(tie, WireFormat::kAuto, WireFormat::kBitmap);
}

TEST(WireFormat, BitmapFallsBackOnNonAscendingInput) {
  // Bitmap decode emits ascending order; a non-ascending sequence
  // must reroute to the order-preserving varint, never reorder.
  round_trip({9, 3, 7, 1}, WireFormat::kBitmap, WireFormat::kDeltaVarint);
  // Duplicates: a bitmap would silently merge them (item-count loss).
  round_trip({4, 4, 4, 9, 2, 2, 100, 3}, WireFormat::kBitmap,
             WireFormat::kDeltaVarint);
  round_trip({4, 4, 4, 9, 2, 2, 100, 3}, WireFormat::kAuto,
             WireFormat::kDeltaVarint);
}

TEST(WireFormat, VarintFallsBackToRawWhenCompressionInflates) {
  // Alternating extremes make every zigzag delta ~5 bytes > 4 raw.
  std::vector<VertexT> hostile;
  for (int i = 0; i < 64; ++i) {
    hostile.push_back(i % 2 == 0 ? 0xFFFFFFF0u + (i & 3) : i);
  }
  Message msg = make_msg(hostile);
  EXPECT_EQ(core::wire::encode(msg, WireFormat::kDeltaVarint),
            WireFormat::kRawIds);
  // The message is untouched raw — no wire buffer, vertices intact.
  EXPECT_EQ(msg.encoding, WireFormat::kRawIds);
  ASSERT_EQ(msg.vertices.size(), hostile.size());
  EXPECT_EQ(msg.vertices[1], hostile[1]);
}

TEST(WireFormat, AutoPicksTheSmallerEncoding) {
  // Sparse IDs take the varint, every other ID below 1024 the bitmap.
  round_trip({0, 100, 5000, 90000}, WireFormat::kAuto,
             WireFormat::kDeltaVarint);
  std::vector<VertexT> every_other(512);
  for (std::size_t i = 0; i < every_other.size(); ++i) {
    every_other[i] = static_cast<VertexT>(2 * i);
  }
  round_trip(every_other, WireFormat::kAuto, WireFormat::kBitmap);
  // 128 IDs at stride 8: a 136-byte bitmap against a 130-byte varint
  // (a 2-byte count plus one byte per delta).
  std::vector<VertexT> strided(128);
  for (std::size_t i = 0; i < strided.size(); ++i) {
    strided[i] = static_cast<VertexT>(8 * i);
  }
  Message msg = make_msg(strided);
  ASSERT_EQ(core::wire::encode(msg, WireFormat::kAuto),
            WireFormat::kDeltaVarint);
  EXPECT_EQ(msg.payload_bytes(), 130u);
  // Seeded ascending runs at every density, some with two IDs swapped:
  // auto never ships more than a forced bitmap, a forced varint or raw.
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    util::Rng rng(seed);
    std::vector<VertexT> ids(1 + rng.next_below(300));
    const std::uint64_t max_gap = 1 + rng.next_below(200);
    VertexT v = static_cast<VertexT>(rng.next_below(1000));
    for (auto& id : ids) {
      id = v;
      v += static_cast<VertexT>(1 + rng.next_below(max_gap));
    }
    if (ids.size() > 1 && rng.next_bool(0.25)) {
      std::swap(ids[rng.next_below(ids.size())], ids[0]);
    }
    std::size_t smallest = ids.size() * sizeof(VertexT);
    for (const WireFormat f : {WireFormat::kBitmap, WireFormat::kDeltaVarint}) {
      Message forced = make_msg(ids);
      core::wire::encode(forced, f);
      smallest = std::min(smallest, forced.payload_bytes());
    }
    Message chosen = make_msg(ids);
    core::wire::encode(chosen, WireFormat::kAuto);
    EXPECT_LE(chosen.payload_bytes(), smallest) << "seed " << seed;
    core::wire::decode(chosen);
    ASSERT_EQ(chosen.vertices.size(), ids.size()) << "seed " << seed;
    EXPECT_TRUE(std::equal(ids.begin(), ids.end(), chosen.vertices.begin()))
        << "seed " << seed;
  }
}

TEST(WireFormat, DecodeRejectsCorruptPayloads) {
  // Truncated varint stream.
  Message msg = make_msg({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  ASSERT_EQ(core::wire::encode(msg, WireFormat::kDeltaVarint),
            WireFormat::kDeltaVarint);
  msg.wire.resize(msg.wire.size() - 2);
  EXPECT_THROW(core::wire::decode(msg), Error);

  // Bitmap popcount != header item count.
  std::vector<VertexT> dense(256);
  std::iota(dense.begin(), dense.end(), 0u);
  Message bm = make_msg(dense);
  ASSERT_EQ(core::wire::encode(bm, WireFormat::kBitmap),
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
    ASSERT_EQ(core::wire::encode(valid, want), want)
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
    ASSERT_EQ(core::wire::encode(msg, WireFormat::kBitmap),
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
