// CommBus data-path properties: exact payload round-trips at 1-8 vGPUs,
// and zero steady-state heap allocations across push -> drain ->
// release -> flush_relays for flat and two-level topologies under raw
// and compressed wire formats.
//
// This file replaces the global allocator for the whole test binary
// with a counting one, so a test can sample the counter around a warm
// loop; it counts allocations from every thread, comm-stream workers
// included.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/comm.hpp"
#include "vgpu/machine.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mgg {
namespace {

using core::CommBus;
using core::Message;
using core::WireFormat;

constexpr double kDensity = 1.0 / 16;

/// An SSSP-shaped exchange over a shared vertex universe: vertex v is
/// hosted by GPU v % n, and GPU g emits the 16-vertex blocks q = v / 16
/// with (q + g) % 3 != 0, so every bucket is non-empty and the GPUs'
/// frontiers overlap (the two-level merge has duplicates to drop).
/// Each remote vertex travels with one VertexT and one ValueT
/// associate. Tag 0 buckets are ascending (bitmap-eligible under
/// kAuto), tag 1 buckets descending (delta-varint), so both codecs
/// run.
struct Exchange {
  static constexpr VertexT kUniverse = 1536;
  int gpus;
  WireFormat format;

  static VertexT pred(VertexT v) { return kUniverse - v; }
  static ValueT dist(VertexT v) { return static_cast<ValueT>(v) * 0.5f; }

  /// Visit `src`'s tag-`tag` bucket for `dst` in emission order.
  template <typename F>
  void for_each(int src, int dst, int tag, F&& visit) const {
    for (VertexT i = 0; i < kUniverse; ++i) {
      const VertexT v = tag == 0 ? i : kUniverse - 1 - i;
      if ((v / 16 + static_cast<VertexT>(src)) % 3 != 0 &&
          static_cast<int>(v % static_cast<VertexT>(gpus)) == dst) {
        visit(v);
      }
    }
  }

  std::size_t hosted() const { return kUniverse / gpus; }

  Message package(CommBus& bus, int src, int dst, int tag) const {
    Message msg = bus.acquire();
    msg.tag = tag;
    std::size_t n = 0;
    for_each(src, dst, tag, [&](VertexT) { ++n; });
    msg.set_layout(1, 1, n);
    std::size_t i = 0;
    for_each(src, dst, tag, [&](VertexT v) {
      msg.vertices[i] = v;
      msg.vertex_slot(0)[i] = pred(v);
      msg.value_slot(0)[i] = dist(v);
      ++i;
    });
    core::wire::encode(msg, format, kDensity, hosted());
    return msg;
  }

  /// Exactly the payload `package` built, associates included.
  bool matches(int dst, const Message& m) const {
    if (m.vertex_slots != 1 || m.value_slots != 1) return false;
    bool ok = true;
    std::size_t i = 0;
    for_each(m.src_gpu, dst, m.tag, [&](VertexT v) {
      ok = ok && i < m.vertices.size() && m.vertices[i] == v &&
           m.vertex_slot(0)[i] == pred(v) && m.value_slot(0)[i] == dist(v);
      ++i;
    });
    return ok && i == m.vertices.size();
  }

  core::TwoLevelPolicy two_level(const vgpu::Machine& machine) const {
    core::TwoLevelPolicy policy;
    policy.enabled = true;
    policy.wire_format = format;
    policy.density_threshold = kDensity;
    const int node_size = machine.interconnect().node_size();
    policy.node_universe.assign(static_cast<std::size_t>(gpus),
                                hosted() * node_size);
    return policy;
  }
};

struct Tally {
  std::size_t messages = 0;
  std::size_t mismatches = 0;
};

/// One superstep: every GPU pushes both tags to every peer; once the
/// comm streams have drained, every receiver checks and releases its
/// batch, and the gateways flush. No gtest assertion runs inside, so
/// the round itself is all the allocation counter sees.
void run_round(vgpu::Machine& machine, CommBus& bus, const Exchange& x,
               Tally& tally) {
  const int n = machine.num_devices();
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (dst == src) continue;
      for (int tag = 0; tag < 2; ++tag) {
        bus.push(src, dst, x.package(bus, src, dst, tag));
      }
    }
  }
  for (int d = 0; d < n; ++d) machine.device(d).comm_stream().synchronize();
  for (int d = 0; d < n; ++d) {
    for (const Message& m : bus.drain(d)) {
      ++tally.messages;
      if (!x.matches(d, m)) ++tally.mismatches;
    }
    bus.release_drained(d);
  }
  bus.flush_relays();
}

std::string label(const Exchange& x, bool two_level) {
  return std::to_string(x.gpus) + " vGPUs, " + core::to_string(x.format) +
         (two_level ? ", two-level" : ", flat");
}

TEST(CommBus, PayloadRoundTripsExactlyAt1To8Gpus) {
  for (const WireFormat format : {WireFormat::kRawIds, WireFormat::kAuto}) {
    for (int gpus = 1; gpus <= 8; ++gpus) {
      const Exchange x{gpus, format};
      auto machine = vgpu::Machine::create("k40", gpus);
      CommBus bus(machine);
      // Later rounds reuse recycled buffers that still hold the
      // previous round's bytes.
      for (int round = 0; round < 3; ++round) {
        Tally tally;
        run_round(machine, bus, x, tally);
        EXPECT_EQ(tally.messages,
                  static_cast<std::size_t>(2 * gpus * (gpus - 1)))
            << label(x, false);
        EXPECT_EQ(tally.mismatches, 0u) << label(x, false);
      }
      if (format == WireFormat::kAuto && gpus > 1) {
        EXPECT_GT(bus.wire_stats().bytes_bitmap, 0u) << label(x, false);
        EXPECT_GT(bus.wire_stats().bytes_delta, 0u) << label(x, false);
      }
    }
  }
}

TEST(CommBus, SteadyStateAllocatesNothing) {
  constexpr int kWarmupRounds = 32;
  constexpr int kMeasuredRounds = 16;
  for (const bool two_level : {false, true}) {
    for (const WireFormat format : {WireFormat::kRawIds, WireFormat::kAuto}) {
      auto machine = vgpu::Machine::create_cluster("k40", 2, 2);
      const Exchange x{machine.num_devices(), format};
      CommBus bus(machine);
      if (two_level) bus.set_two_level(x.two_level(machine));
      Tally tally;
      for (int round = 0; round < kWarmupRounds; ++round) {
        run_round(machine, bus, x, tally);
      }
      const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
      for (int round = 0; round < kMeasuredRounds; ++round) {
        run_round(machine, bus, x, tally);
      }
      const std::uint64_t allocs =
          g_allocs.load(std::memory_order_relaxed) - before;
      EXPECT_EQ(allocs, 0u) << label(x, two_level);
      EXPECT_EQ(tally.mismatches, 0u) << label(x, two_level);
      // Every message is back in the pool once the round closes.
      EXPECT_EQ(bus.pool_size(), 2u * 4 * 3) << label(x, two_level);
      // Non-vacuous: the relay merged (and deduplicated), and kAuto
      // ran both codecs.
      if (two_level) {
        EXPECT_GT(bus.gateway_merges(), 0u) << label(x, two_level);
        EXPECT_GT(bus.gateway_dedup_items(), 0u) << label(x, two_level);
      }
      if (format == WireFormat::kAuto) {
        EXPECT_GT(bus.wire_stats().bytes_bitmap, 0u) << label(x, two_level);
        EXPECT_GT(bus.wire_stats().bytes_delta, 0u) << label(x, two_level);
      }
    }
  }
}

TEST(CommBus, ResetEmptiesRelayLedger) {
  // Released cross-node messages wait in the relay ledger until the
  // superstep's flush; a run retired before that flush must get them
  // back into the pool, and a later flush must price nothing.
  auto machine = vgpu::Machine::create_cluster("k40", 2, 2);
  const Exchange x{machine.num_devices(), WireFormat::kRawIds};
  CommBus bus(machine);
  bus.set_two_level(x.two_level(machine));
  const int n = machine.num_devices();
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (dst != src) bus.push(src, dst, x.package(bus, src, dst, 0));
    }
  }
  for (int d = 0; d < n; ++d) machine.device(d).comm_stream().synchronize();
  for (int d = 0; d < n; ++d) {
    bus.drain(d);
    bus.release_drained(d);
  }
  // Only the intra-node messages are back; 8 of 12 crossed nodes.
  EXPECT_EQ(bus.pool_size(), 4u);
  bus.reset();
  EXPECT_EQ(bus.pool_size(), 12u);
  bus.flush_relays();
  EXPECT_EQ(bus.gateway_merges(), 0u);
  EXPECT_EQ(bus.pool_size(), 12u);
}

}  // namespace
}  // namespace mgg
