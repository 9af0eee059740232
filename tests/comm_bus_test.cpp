// CommBus data-path properties: exact payload round-trips at 1-8 vGPUs,
// zero steady-state heap allocations across push -> drain_from ->
// release -> flush_relays for flat and two-level topologies under raw and
// compressed wire formats, the gateway merge's exact output, push's
// fault path, and the reset() lifecycle, alone and against concurrent
// senders.
//
// This file replaces the global allocator for the whole test binary
// with a counting one, so a test can sample the counter around a warm
// loop; it counts allocations from every thread, host pool workers
// included.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/comm.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "vgpu/fault.hpp"
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

/// Drain receiver `dst`'s inbox sender by sender in ascending order,
/// as the enactor does, handing each message to `visit` and releasing
/// each sender's batch before the next drain.
template <typename Visit>
void drain_each_sender(CommBus& bus, int n, int dst, Visit&& visit) {
  for (int src = 0; src < n; ++src) {
    if (src == dst) continue;
    for (const Message& m : bus.drain_from(dst, src)) visit(m);
    bus.release_drained(dst);
  }
}

/// An SSSP-shaped exchange over a shared vertex universe: vertex v is
/// hosted by GPU v % n, and GPU g emits the 16-vertex blocks q = v / 16
/// with (q + g) % 3 != 0, so every bucket is non-empty and the GPUs'
/// frontiers overlap (the two-level merge has duplicates to drop).
/// Each remote vertex travels with one VertexT and one ValueT
/// associate. Tag 0 buckets carry the receiver's local IDs v / n,
/// ascending and dense enough that kAuto picks the bitmap; tag 1
/// buckets carry global IDs descending (delta-varint), so both codecs
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
        visit(tag == 0 ? v / static_cast<VertexT>(gpus) : v);
      }
    }
  }

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
    core::wire::encode(msg, format);
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

  core::TwoLevelPolicy two_level() const { return {true, format}; }
};

struct Tally {
  std::size_t messages = 0;
  std::size_t mismatches = 0;
};

/// One superstep: every GPU pushes both tags to every peer; then every
/// receiver checks and releases each sender's batch, and the gateways
/// flush. No gtest assertion runs inside, so the round itself is all
/// the allocation counter sees.
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
  for (int d = 0; d < n; ++d) {
    drain_each_sender(bus, n, d, [&](const Message& m) {
      ++tally.messages;
      if (!x.matches(d, m)) ++tally.mismatches;
    });
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
      if (two_level) bus.set_two_level(x.two_level());
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

/// What one run_round must add to the bus's counters with two-level on,
/// rebuilt without the bus: every sender hop as `package` encodes it,
/// plus one merged push per (gateway, dst, tag) group whose IDs are the
/// node's buckets concatenated in src order, std::sort + std::unique'd,
/// re-encoded by wire::encode with the policy's format.
struct RelayReference {
  std::uint64_t bytes[3] = {};  ///< by applied format: raw, bitmap, delta
  std::uint64_t inter = 0;      ///< the merged pushes' bytes
  std::uint64_t dedup = 0;      ///< staged minus merged items
};

RelayReference reference_round(const vgpu::Machine& machine, CommBus& scratch,
                               const Exchange& x,
                               const core::TwoLevelPolicy& policy) {
  RelayReference ref;
  const vgpu::Interconnect& net = machine.interconnect();
  const int n = machine.num_devices();
  const auto format_index = [](WireFormat f) { return static_cast<int>(f); };
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (dst == src) continue;
      for (int tag = 0; tag < 2; ++tag) {
        Message m = x.package(scratch, src, dst, tag);
        // A sender that is its own gateway stages in place: no bytes.
        if (net.same_node(src, dst) || net.gateway(src, dst) != src) {
          ref.bytes[format_index(m.encoding)] += m.payload_bytes();
        }
        scratch.release(std::move(m));
      }
    }
  }
  const int node_size = net.node_size();
  for (int dst = 0; dst < n; ++dst) {
    for (int tag = 0; tag < 2; ++tag) {
      for (int node_base = 0; node_base < n; node_base += node_size) {
        if (net.same_node(node_base, dst)) continue;
        std::vector<VertexT> ids;
        for (int src = node_base; src < node_base + node_size; ++src) {
          x.for_each(src, dst, tag, [&](VertexT v) { ids.push_back(v); });
        }
        const std::size_t staged = ids.size();
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        ref.dedup += staged - ids.size();
        Message merged;
        merged.set_layout(1, 1, ids.size());
        std::copy(ids.begin(), ids.end(), merged.vertices.begin());
        const WireFormat applied =
            core::wire::encode(merged, policy.wire_format);
        ref.bytes[format_index(applied)] += merged.payload_bytes();
        ref.inter += merged.payload_bytes();
      }
    }
  }
  return ref;
}

TEST(CommBus, GatewayMergeMatchesSortedUniqueUnion) {
  // The existing tests only see that the merge deduplicates something;
  // this pins its exact output. Tag 0 buckets ascend, tag 1 buckets
  // descend, and the senders' buckets overlap.
  for (const WireFormat format : {WireFormat::kRawIds, WireFormat::kAuto}) {
    auto machine = vgpu::Machine::create_cluster("k40", 2, 2);
    const Exchange x{machine.num_devices(), format};
    const core::TwoLevelPolicy policy = x.two_level();
    const std::string where = label(x, true);
    CommBus scratch(machine);
    const RelayReference ref = reference_round(machine, scratch, x, policy);
    CommBus bus(machine);
    bus.set_two_level(policy);
    const core::WireStats before = bus.wire_stats();
    const std::uint64_t inter_before = bus.link_bytes().inter;
    const std::uint64_t dedup_before = bus.gateway_dedup_items();
    Tally tally;
    run_round(machine, bus, x, tally);
    const core::WireStats after = bus.wire_stats();
    EXPECT_EQ(tally.mismatches, 0u) << where;
    EXPECT_EQ(bus.gateway_dedup_items() - dedup_before, ref.dedup) << where;
    EXPECT_EQ(bus.link_bytes().inter - inter_before, ref.inter) << where;
    EXPECT_EQ(after.bytes_raw - before.bytes_raw, ref.bytes[0]) << where;
    EXPECT_EQ(after.bytes_bitmap - before.bytes_bitmap, ref.bytes[1])
        << where;
    EXPECT_EQ(after.bytes_delta - before.bytes_delta, ref.bytes[2]) << where;
    EXPECT_GT(ref.dedup, 0u) << where;
  }
}

TEST(CommBus, ResetEmptiesRelayLedger) {
  // Released cross-node messages wait in the relay ledger until the
  // superstep's flush; a run retired before that flush must get them
  // back into the pool, and a later flush must price nothing.
  auto machine = vgpu::Machine::create_cluster("k40", 2, 2);
  const Exchange x{machine.num_devices(), WireFormat::kRawIds};
  CommBus bus(machine);
  bus.set_two_level(x.two_level());
  const int n = machine.num_devices();
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (dst != src) bus.push(src, dst, x.package(bus, src, dst, 0));
    }
  }
  for (int d = 0; d < n; ++d) {
    drain_each_sender(bus, n, d, [](const Message&) {});
  }
  // Only the intra-node messages are back; 8 of 12 crossed nodes.
  EXPECT_EQ(bus.pool_size(), 4u);
  bus.reset();
  EXPECT_EQ(bus.pool_size(), 12u);
  bus.flush_relays();
  EXPECT_EQ(bus.gateway_merges(), 0u);
  EXPECT_EQ(bus.pool_size(), 12u);
}

TEST(CommBus, ResetRecyclesUndrainedMessages) {
  // A run retired before its receiver drained: the delivered message
  // goes back to the pool, and the next run's inbox starts empty.
  auto machine = vgpu::Machine::create("k40", 2);
  CommBus bus(machine);
  Message msg = bus.acquire();
  msg.set_layout(0, 0, 1);
  msg.vertices[0] = 7;
  bus.push(0, 1, std::move(msg));
  bus.reset();
  EXPECT_EQ(bus.pool_size(), 1u);
  EXPECT_TRUE(bus.drain_from(1, 0).empty())
      << "stale message leaked into the post-reset inbox";
}

TEST(CommBus, PushThrowsOnPermanentTransferFault) {
  // push() runs on the caller's thread, so a dead link surfaces from
  // the push itself, and the payload is recycled, not lost.
  auto machine = vgpu::Machine::create("k40", 2);
  vgpu::FaultInjector injector(
      vgpu::FaultPlan::parse("transfer_permanent@0>1"), 2);
  machine.set_fault_injector(&injector);
  CommBus bus(machine);
  Message msg = bus.acquire();
  msg.set_layout(0, 0, 1);
  msg.vertices[0] = 7;
  try {
    bus.push(0, 1, std::move(msg));
    FAIL() << "push over a permanently failed link returned normally";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kUnavailable) << e.what();
  }
  EXPECT_EQ(bus.pool_size(), 1u);
  EXPECT_TRUE(bus.drain_from(1, 0).empty());
  machine.set_fault_injector(nullptr);
}

TEST(CommBus, ResetUnderConcurrentPushTraffic) {
  // Hammer reset() against senders pushing from their own threads; no
  // message may survive into the post-reset inboxes and none may leak
  // (every payload ends up back in the pool or delivered-and-drained).
  auto machine = vgpu::Machine::create("k40", 4);
  CommBus bus(machine);
  std::atomic<bool> stop{false};
  std::vector<std::thread> senders;
  for (int src = 0; src < 4; ++src) {
    senders.emplace_back([&, src] {
      util::Rng rng(src + 1);
      // Floor of 64 pushes even if stop is raised immediately (on a
      // loaded machine the reset loop can finish before this thread is
      // first scheduled), so the pool assertion below has substance.
      // Capped so a serializing scheduler (ThreadSanitizer) cannot
      // keep the senders running forever.
      for (int i = 0;
           i < 64 || (i < 8192 && !stop.load(std::memory_order_acquire));
           ++i) {
        const int dst = (src + 1 + static_cast<int>(rng.next_below(3))) % 4;
        Message m = bus.acquire();
        m.set_layout(0, 0, 8);
        bus.push(src, dst, std::move(m));
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    bus.reset();
    // Fresh post-reset pushes may already be landing; just cycle the
    // drain path under contention (TSan covers the rest).
    for (int d = 0; d < 4; ++d) {
      drain_each_sender(bus, 4, d, [](const Message&) {});
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : senders) t.join();
  // With traffic quiesced, a reset must leave every inbox empty and
  // every payload accounted for in the pool.
  bus.reset();
  for (int d = 0; d < 4; ++d) {
    for (int src = 0; src < 4; ++src) {
      if (src == d) continue;
      EXPECT_TRUE(bus.drain_from(d, src).empty());
      bus.release_drained(d);
    }
  }
  EXPECT_GT(bus.pool_size(), 0u);
}

}  // namespace
}  // namespace mgg
