#include "core/comm.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/error.hpp"
#include "vgpu/fault.hpp"

namespace mgg::core {

std::string to_string(CommStrategy s) {
  switch (s) {
    case CommStrategy::kSelective: return "selective";
    case CommStrategy::kBroadcast: return "broadcast";
  }
  return "unknown";
}

std::string to_string(SyncMode m) {
  switch (m) {
    case SyncMode::kBspBarrier: return "bsp_barrier";
    case SyncMode::kEventPipeline: return "event_pipeline";
  }
  return "unknown";
}

std::string to_string(WireFormat f) {
  switch (f) {
    case WireFormat::kRawIds: return "raw";
    case WireFormat::kBitmap: return "bitmap";
    case WireFormat::kDeltaVarint: return "varint";
    case WireFormat::kAuto: return "auto";
  }
  return "unknown";
}

WireFormat parse_wire_format(const std::string& text) {
  if (text == "raw" || text == "raw_ids") return WireFormat::kRawIds;
  if (text == "bitmap") return WireFormat::kBitmap;
  if (text == "varint" || text == "delta_varint") {
    return WireFormat::kDeltaVarint;
  }
  if (text == "auto") return WireFormat::kAuto;
  throw Error(Status::kInvalidArgument,
              "unknown wire format '" + text +
                  "' (expected raw | bitmap | varint | auto)");
}

namespace wire {
namespace {

/// Zigzag map: signed delta -> unsigned varint payload, small
/// magnitudes (either sign) to small codes.
inline std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t u) noexcept {
  return static_cast<std::int64_t>(u >> 1) ^
         -static_cast<std::int64_t>(u & 1);
}

inline void put_varint(util::PodVector<std::uint8_t>& out,
                       std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Encoded length of put_varint(v) without emitting it (the sizing
/// pass of the two-pass parallel varint encoder).
inline std::size_t varint_len(std::uint64_t v) noexcept {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// put_varint into a raw buffer at `p`; returns bytes written. Emits
/// exactly the bytes put_varint would push_back.
inline std::size_t put_varint_at(std::uint8_t* p, std::uint64_t v) noexcept {
  std::size_t i = 0;
  while (v >= 0x80) {
    p[i++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  p[i++] = static_cast<std::uint8_t>(v);
  return i;
}

/// LEB128 read with bounds checking; throws kInternal on truncation or
/// a code that does not fit u64 (a 10th byte above 1, or an 11th).
inline std::uint64_t get_varint(const std::uint8_t* data, std::size_t size,
                                std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    MGG_CHECK(pos < size, Status::kInternal,
              "wire: truncated varint payload");
    const std::uint8_t byte = data[pos++];
    MGG_CHECK(shift < 63 || byte <= 1, Status::kInternal,
              "wire: varint overflows u64");
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

inline void put_u32(util::PodVector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

inline std::uint32_t get_u32(const std::uint8_t* data, std::size_t size,
                             std::size_t& pos) {
  MGG_CHECK(pos + 4 <= size, Status::kInternal,
            "wire: truncated bitmap header");
  const std::uint32_t v = static_cast<std::uint32_t>(data[pos]) |
                          static_cast<std::uint32_t>(data[pos + 1]) << 8 |
                          static_cast<std::uint32_t>(data[pos + 2]) << 16 |
                          static_cast<std::uint32_t>(data[pos + 3]) << 24;
  pos += 4;
  return v;
}

bool strictly_ascending(const util::PodVector<VertexT>& v) noexcept {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) return false;
  }
  return true;
}

/// Bitmap layout: [u32 n_items][u32 n_words][n_words * 8-byte LE words]
/// over the [0, max_id] ID range. Lossless only for strictly ascending
/// input (decode emits set bits in ascending order) — the caller
/// checked that.
void encode_bitmap(Message& msg, util::ThreadPool* pool) {
  const std::size_t n = msg.vertices.size();
  const std::uint64_t max_id = msg.vertices[n - 1];  // ascending: last
  const std::uint64_t n_words = max_id / 64 + 1;
  msg.wire.clear();
  msg.wire.reserve(8 + n_words * 8);
  put_u32(msg.wire, static_cast<std::uint32_t>(n));
  put_u32(msg.wire, static_cast<std::uint32_t>(n_words));
  const std::size_t base = msg.wire.size();
  msg.wire.resize(base + n_words * 8);
  // Parallel fill: chunk the *word* range (each word owns 8 output
  // bytes and the 64 IDs mapping into it), and hand each chunk the
  // vertex subrange landing in its words via binary search on the
  // (strictly ascending — the caller checked) ID sequence. Chunks
  // zero and set disjoint byte ranges, so the payload is byte-for-byte
  // what the sequential fill+set loop produces.
  constexpr std::size_t kWordGrain = 512;
  util::parallel_for(
      pool, static_cast<std::size_t>(n_words), kWordGrain,
      [&](std::size_t wb, std::size_t we, std::size_t /*chunk*/) {
        std::fill(msg.wire.begin() + static_cast<std::ptrdiff_t>(base + wb * 8),
                  msg.wire.begin() + static_cast<std::ptrdiff_t>(base + we * 8),
                  std::uint8_t{0});
        const VertexT* first = msg.vertices.data();
        const VertexT* last = first + n;
        const VertexT* lo = std::lower_bound(
            first, last, static_cast<VertexT>(wb * 64));
        const VertexT* hi =
            we * 64 > max_id
                ? last
                : std::lower_bound(lo, last, static_cast<VertexT>(we * 64));
        for (const VertexT* it = lo; it != hi; ++it) {
          const std::uint64_t id = *it;
          msg.wire[base + (id / 64) * 8 + (id % 64) / 8] |=
              static_cast<std::uint8_t>(1u << (id % 8));
        }
      });
}

/// Bytes encode_delta_varint emits for `v`, without emitting them.
std::size_t delta_varint_bytes(const util::PodVector<VertexT>& v) noexcept {
  std::size_t bytes = varint_len(v.size());
  std::int64_t prev = 0;
  for (const VertexT id : v) {
    const auto cur = static_cast<std::int64_t>(id);
    bytes += varint_len(zigzag(cur - prev));
    prev = cur;
  }
  return bytes;
}

/// Delta-varint layout: [varint n][zigzag(v[i] - v[i-1]) varints],
/// previous starting at 0. Order-preserving for arbitrary sequences.
void encode_delta_varint(Message& msg, util::ThreadPool* pool) {
  const std::size_t n = msg.vertices.size();
  msg.wire.clear();
  constexpr std::size_t kItemGrain = 4096;
  const std::size_t n_chunks = util::ThreadPool::chunk_count(n, kItemGrain);
  if (pool == nullptr || n_chunks == 1) {
    // Ascending dense runs collapse to 1 byte/vertex; reserve for that
    // common case and let push_back grow on adversarial input.
    msg.wire.reserve(10 + n * 2);
    put_varint(msg.wire, n);
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t cur = static_cast<std::int64_t>(msg.vertices[i]);
      put_varint(msg.wire, zigzag(cur - prev));
      prev = cur;
    }
    return;
  }
  // Two-pass parallel encode. Every delta depends only on vertices
  // [i-1] and [i], so a chunk starting at b seeds its running
  // `prev` from vertices[b-1] — no cross-chunk carry. Pass 1 sizes
  // each chunk's encoded bytes, a serial prefix fixes each chunk's
  // output offset, and pass 2 emits into disjoint ranges: the byte
  // stream is identical to the sequential encoder's.
  put_varint(msg.wire, n);
  const std::size_t header = msg.wire.size();
  std::size_t chunk_bytes[util::ThreadPool::kMaxChunks];
  pool->run_chunks(n_chunks, [&](std::size_t c) {
    const std::size_t b = util::ThreadPool::chunk_begin(n, n_chunks, c);
    const std::size_t e = util::ThreadPool::chunk_begin(n, n_chunks, c + 1);
    std::int64_t prev =
        b == 0 ? 0 : static_cast<std::int64_t>(msg.vertices[b - 1]);
    std::size_t bytes = 0;
    for (std::size_t i = b; i < e; ++i) {
      const std::int64_t cur = static_cast<std::int64_t>(msg.vertices[i]);
      bytes += varint_len(zigzag(cur - prev));
      prev = cur;
    }
    chunk_bytes[c] = bytes;
  });
  std::size_t offsets[util::ThreadPool::kMaxChunks];
  std::size_t total = header;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    offsets[c] = total;
    total += chunk_bytes[c];
  }
  msg.wire.resize(total);
  pool->run_chunks(n_chunks, [&](std::size_t c) {
    const std::size_t b = util::ThreadPool::chunk_begin(n, n_chunks, c);
    const std::size_t e = util::ThreadPool::chunk_begin(n, n_chunks, c + 1);
    std::int64_t prev =
        b == 0 ? 0 : static_cast<std::int64_t>(msg.vertices[b - 1]);
    std::uint8_t* out = msg.wire.data() + offsets[c];
    for (std::size_t i = b; i < e; ++i) {
      const std::int64_t cur = static_cast<std::int64_t>(msg.vertices[i]);
      out += put_varint_at(out, zigzag(cur - prev));
      prev = cur;
    }
  });
}

}  // namespace

WireFormat encode(Message& msg, WireFormat requested,
                  util::ThreadPool* pool) {
  if (requested == WireFormat::kRawIds || msg.vertices.empty()) {
    return WireFormat::kRawIds;
  }
  MGG_REQUIRE(msg.encoding == WireFormat::kRawIds,
              "wire::encode on an already-encoded message");
  const std::size_t n = msg.vertices.size();
  const std::size_t raw_bytes = n * sizeof(VertexT);
  // Bitmap decode yields ascending order; a non-ascending sequence
  // would be reordered (or, with duplicates, lose items), so only an
  // ascending one may take the bitmap, and only where it beats raw.
  const std::size_t bitmap_bytes =
      strictly_ascending(msg.vertices)
          ? 8 + (static_cast<std::size_t>(msg.vertices[n - 1]) / 64 + 1) * 8
          : raw_bytes;
  const bool bitmap_ok = bitmap_bytes < raw_bytes;

  WireFormat pick = requested;
  if (pick == WireFormat::kAuto) {
    // A varint spends at least one byte on the count and one per ID,
    // so a bitmap of at most n + 1 bytes wins without sizing it; ties
    // go to the bitmap.
    pick = bitmap_ok && (bitmap_bytes <= n + 1 ||
                         bitmap_bytes <= delta_varint_bytes(msg.vertices))
               ? WireFormat::kBitmap
               : WireFormat::kDeltaVarint;
  } else if (pick == WireFormat::kBitmap && !bitmap_ok) {
    pick = WireFormat::kDeltaVarint;
  }
  if (pick == WireFormat::kBitmap) {
    encode_bitmap(msg, pool);
  } else {
    encode_delta_varint(msg, pool);
  }
  if (msg.wire.size() >= raw_bytes) {
    // Compression would inflate the payload (sparse adversarial
    // sequences with large alternating deltas); ship raw.
    msg.wire.clear();
    return WireFormat::kRawIds;
  }
  msg.encoding = pick;
  msg.wire_items = n;
  msg.vertices.clear();
  return pick;
}

void decode(Message& msg) {
  if (msg.encoding == WireFormat::kRawIds) return;
  const std::size_t n = msg.wire_items;
  const std::uint8_t* data = msg.wire.data();
  const std::size_t size = msg.wire.size();
  std::size_t pos = 0;
  msg.vertices.resize(n);
  if (msg.encoding == WireFormat::kBitmap) {
    const std::uint32_t n_items = get_u32(data, size, pos);
    const std::uint32_t n_words = get_u32(data, size, pos);
    MGG_CHECK(n_items == n, Status::kInternal,
              "wire: bitmap header item count mismatch");
    MGG_CHECK(pos + static_cast<std::size_t>(n_words) * 8 == size,
              Status::kInternal, "wire: bitmap payload size mismatch");
    std::size_t out = 0;
    for (std::uint32_t w = 0; w < n_words; ++w) {
      std::uint64_t word = 0;
      for (int b = 0; b < 8; ++b) {
        word |= static_cast<std::uint64_t>(data[pos + b]) << (b * 8);
      }
      pos += 8;
      const std::uint64_t word_base = static_cast<std::uint64_t>(w) * 64;
      while (word != 0) {
        const int bit = std::countr_zero(word);
        MGG_CHECK(out < n, Status::kInternal,
                  "wire: bitmap has more set bits than items");
        msg.vertices[out++] = static_cast<VertexT>(word_base + bit);
        word &= word - 1;
      }
    }
    MGG_CHECK(out == n, Status::kInternal,
              "wire: bitmap has fewer set bits than items");
  } else {
    const std::uint64_t n_header = get_varint(data, size, pos);
    MGG_CHECK(n_header == n, Status::kInternal,
              "wire: varint header item count mismatch");
    constexpr std::int64_t kMaxId = std::numeric_limits<VertexT>::max();
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      // Range-check the delta before adding it: prev is in [0, kMaxId],
      // so neither bound below overflows, and the sum cannot either.
      const std::int64_t delta = unzigzag(get_varint(data, size, pos));
      MGG_CHECK(delta >= -prev && delta <= kMaxId - prev, Status::kInternal,
                "wire: decoded vertex out of VertexT range");
      prev += delta;
      msg.vertices[i] = static_cast<VertexT>(prev);
    }
    MGG_CHECK(pos == size, Status::kInternal,
              "wire: trailing bytes after varint payload");
  }
  msg.encoding = WireFormat::kRawIds;
  msg.wire.clear();
  msg.wire_items = 0;
}

}  // namespace wire

CommBus::CommBus(vgpu::Machine& machine)
    : machine_(&machine),
      locks_(machine.num_devices()),
      inboxes_(machine.num_devices()),
      drained_(machine.num_devices()),
      relay_(machine.num_devices()) {}

Message CommBus::acquire() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_.empty()) return Message{};
  Message message = std::move(pool_.back());
  pool_.pop_back();
  return message;
}

void CommBus::release(Message&& message) {
  message.recycle();
  std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_.push_back(std::move(message));
}

std::size_t CommBus::pool_size() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_.size();
}

double CommBus::consult_transfer_faults(int src, int dst,
                                        double& backoff_s) {
  // Fault consultation + bounded retry with modeled backoff.
  // Fault-free machines skip this entirely (null injector), so the
  // hot path and its modeled times are untouched.
  double slowdown = 1.0;
  vgpu::FaultInjector* injector = machine_->fault_injector();
  if (injector == nullptr) return slowdown;
  const int max_retries = max_retries_.load(std::memory_order_relaxed);
  int attempt = 0;
  for (;;) {
    const vgpu::TransferDecision decision = injector->on_transfer(src, dst);
    if (decision.permanent_fail) {
      throw Error(Status::kUnavailable, "permanent transfer fault on link " +
                                            std::to_string(src) + "->" +
                                            std::to_string(dst));
    }
    slowdown = decision.slowdown;
    if (!decision.transient_fail) return slowdown;
    if (attempt >= max_retries) {
      throw Error(Status::kUnavailable,
                  "transfer retries exhausted on link " +
                      std::to_string(src) + "->" + std::to_string(dst) +
                      " after " + std::to_string(attempt) + " retries");
    }
    // Modeled exponential backoff, charged by the caller as part of
    // this transfer's comm-timeline occupancy. The exponent is
    // clamped (1 << attempt is UB at attempt >= 64 and the modeled
    // seconds explode long before that) and the total is capped so a
    // high retry bound models a saturated retry loop, not
    // astronomical time.
    static constexpr double kBackoffBaseS = 50e-6;
    static constexpr int kMaxBackoffExponent = 20;
    static constexpr double kBackoffTotalCapFactor =
        static_cast<double>(1ULL << 22);
    const int exponent = std::min(attempt, kMaxBackoffExponent);
    backoff_s = std::min(
        backoff_s + kBackoffBaseS * static_cast<double>(1ULL << exponent),
        kBackoffBaseS * kBackoffTotalCapFactor);
    ++attempt;
    comm_retries_.fetch_add(1, std::memory_order_relaxed);
  }
}

void CommBus::push(int src, int dst, Message message) {
  MGG_REQUIRE(src >= 0 && src < machine_->num_devices(), "bad src GPU");
  MGG_REQUIRE(dst >= 0 && dst < machine_->num_devices(), "bad dst GPU");
  MGG_REQUIRE(src != dst, "self-push is a framework bug");
  if (message.empty()) {
    release(std::move(message));
    return;
  }
  message.src_gpu = src;

  // The modeled transfer cannot start before the kernel that packaged
  // its payload finished: its data dependency is the sender's
  // compute-timeline position now.
  const double ready_s = machine_->device(src).modeled_compute_time();
  const bool cross_node = !machine_->interconnect().same_node(src, dst);
  // Two-level combine: a cross-node push is staged — the sender pays
  // the fast hop to its node's gateway for dst's node (and that hop is
  // the fault-injection surface), and the message is still delivered
  // to dst unchanged (the correctness path). It remembers its gateway
  // so that, once combined, it joins that gateway's relay ledger,
  // where flush_relays() realizes the modeled inter-node cost.
  const bool staged = cross_node && two_level_enabled();
  const int hop_dst = staged ? elect_gateway(src, dst) : dst;
  message.relay_gateway = static_cast<std::int16_t>(staged ? hop_dst : -1);
  message.relay_dst = static_cast<std::int16_t>(dst);
  message.relay_encoded = message.encoding != WireFormat::kRawIds;
  double slowdown = 1.0;
  double backoff_s = 0.0;
  if (src != hop_dst) {
    try {
      slowdown = consult_transfer_faults(src, hop_dst, backoff_s);
    } catch (...) {
      release(std::move(message));
      throw;
    }
  }
  const std::size_t items = message.size();
  // A sender that is itself the gateway stages in place: no link is
  // crossed, so no bytes move — but the items are charged here (and
  // only here) so H item counts match the flat path exactly, with the
  // merged hop carrying items = 0.
  const std::size_t bytes =
      staged && src == hop_dst ? 0 : message.payload_bytes();
  const double seconds =
      machine_->interconnect().transfer_seconds(src, hop_dst, bytes) *
          slowdown +
      backoff_s;
  const char* span = staged       ? "push_relay"
                     : cross_node ? "push_inter_node"
                                  : "push";
  machine_->device(src).add_comm_cost(seconds, bytes, items, ready_s, span,
                                      hop_dst);
  // The staged hop is intra-node by construction, so with two-level on
  // the inter-node share comes solely from the gateways' merged pushes
  // (and direct cross-node pushes when off).
  count_bytes(bytes, message.encoding, cross_node && !staged);
  // Counted per *pushed* message, not per wire::encode call: a
  // broadcast proto is encoded once but cloned to every peer, and each
  // clone is decoded on its receiver — counting here keeps
  // encoded_vertices == decoded_vertices exact.
  if (message.encoding != WireFormat::kRawIds) {
    wire_encoded_.fetch_add(items, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(locks_[dst]);
  inboxes_[dst].push_back(std::move(message));
}

void CommBus::count_bytes(std::size_t bytes, WireFormat format,
                          bool inter_node) {
  if (bytes > 0) machine_->interconnect().record_transfer();
  (inter_node ? inter_bytes_ : intra_bytes_)
      .fetch_add(bytes, std::memory_order_relaxed);
  (format == WireFormat::kBitmap        ? wire_bytes_bitmap_
   : format == WireFormat::kDeltaVarint ? wire_bytes_delta_
                                        : wire_bytes_raw_)
      .fetch_add(bytes, std::memory_order_relaxed);
}

void CommBus::set_two_level(TwoLevelPolicy policy) {
  if (policy.enabled) {
    MGG_REQUIRE(machine_->interconnect().has_nodes(),
                "two-level combine requires a node hierarchy");
    MGG_REQUIRE(machine_->num_devices() <=
                    std::numeric_limits<std::int16_t>::max(),
                "two-level relay ids are 16-bit");
  }
  {
    std::lock_guard<std::mutex> lock(relay_mutex_);
    two_level_ = std::move(policy);
  }
  two_level_enabled_.store(two_level_.enabled, std::memory_order_release);
}

int CommBus::elect_gateway(int src, int dst) const {
  const vgpu::Interconnect& net = machine_->interconnect();
  const int base = net.gateway(src, dst);
  const vgpu::FaultInjector* injector = machine_->fault_injector();
  const int lost = injector != nullptr ? injector->lost_device() : -1;
  if (lost < 0 || base != lost) return base;
  // Failover: re-elect the next live device of src's node,
  // deterministically (scan upward from the base election, wrapping
  // within the node). A single-device node has no one else to elect —
  // keep the base and let the transfer sites report the loss.
  const int node_size = net.node_size();
  const int node_base = (src / node_size) * node_size;
  for (int k = 1; k < node_size; ++k) {
    const int candidate = node_base + (base - node_base + k) % node_size;
    if (candidate != lost) return candidate;
  }
  return base;
}

void CommBus::flush_relays() {
  if (!two_level_enabled()) return;
  // Runs single-threaded in the superstep-close barrier completion,
  // after every receiver released its drained batches — nothing joins
  // the ledger meanwhile; the lock is belt-and-braces against misuse.
  std::lock_guard<std::mutex> lock(relay_mutex_);
  for (std::size_t g = 0; g < relay_.size(); ++g) {
    auto& staged = relay_[g];
    if (staged.empty()) continue;
    // Deterministic flush order regardless of release order: groups by
    // (dst, tag), senders within a group by src — the same tag-sorted
    // (src_gpu, tag) order the receiver's combine uses.
    std::sort(staged.begin(), staged.end(),
              [](const Message& a, const Message& b) {
                if (a.relay_dst != b.relay_dst) {
                  return a.relay_dst < b.relay_dst;
                }
                if (a.tag != b.tag) return a.tag < b.tag;
                return a.src_gpu < b.src_gpu;
              });
    vgpu::Device& gw = machine_->device(static_cast<int>(g));
    // The receiver already decoded every message; a payload that
    // travelled compressed is decoded once more at the gateway in the
    // modeled relay, which must read IDs to merge them.
    for (const Message& m : staged) {
      if (m.relay_encoded) {
        gw.add_kernel_cost(0, m.vertices.size(), 1, "gateway_decode",
                           vgpu::TraceCategory::kCombine);
      }
    }
    for (std::size_t i = 0; i < staged.size();) {
      const int dst = staged[i].relay_dst;
      Message& merged = relay_scratch_;
      merged.recycle();
      std::size_t j = i;
      std::size_t staged_items = 0;
      for (; j < staged.size() && staged[j].relay_dst == dst &&
             staged[j].tag == staged[i].tag;
           ++j) {
        staged_items += staged[j].vertices.size();
      }
      // The surviving key set of the (src, tag)-ordered min-combine
      // is exactly the sorted unique set. A bitmap over [0, max_id]
      // yields it in O(staged + max_id / 64) — one bit per staged
      // ID, set bits read out ascending — so the bitmap re-encode is
      // admissible.
      VertexT max_id = 0;
      for (std::size_t k = i; k < j; ++k) {
        for (const VertexT v : staged[k].vertices) {
          max_id = std::max(max_id, v);
        }
      }
      const std::size_t n_words = static_cast<std::size_t>(max_id) / 64 + 1;
      if (relay_bits_.size() < n_words) relay_bits_.resize(n_words);
      std::fill_n(relay_bits_.begin(), n_words, std::uint64_t{0});
      for (std::size_t k = i; k < j; ++k) {
        for (const VertexT v : staged[k].vertices) {
          relay_bits_[v / 64] |= std::uint64_t{1} << (v % 64);
        }
      }
      merged.vertices.resize(staged_items);
      std::size_t out = 0;
      for (std::size_t w = 0; w < n_words; ++w) {
        for (std::uint64_t word = relay_bits_[w]; word != 0;
             word &= word - 1) {
          merged.vertices[out++] =
              static_cast<VertexT>(w * 64 + std::countr_zero(word));
        }
      }
      merged.vertices.resize(out);
      const std::size_t merged_n = merged.vertices.size();
      gateway_merges_.fetch_add(1, std::memory_order_relaxed);
      gateway_dedup_items_.fetch_add(staged_items - merged_n,
                                     std::memory_order_relaxed);
      // The merge pass touches every staged vertex once.
      gw.add_kernel_cost(0, staged_items, 1, "gateway_merge",
                         vgpu::TraceCategory::kCombine);
      // Model the merged payload: the surviving vertices, one
      // associate entry of each slot per survivor (the combined
      // winners), re-encoded once. Unless the run ships raw IDs, the
      // gateway takes the smallest encoding: the merge may make a
      // forced format larger than what its parts fell back to.
      merged.set_layout(staged[i].vertex_slots, staged[i].value_slots,
                        merged_n);
      const WireFormat applied = wire::encode(
          merged,
          two_level_.wire_format == WireFormat::kRawIds ? WireFormat::kRawIds
                                                        : WireFormat::kAuto,
          host_pool_);
      if (applied != WireFormat::kRawIds) {
        gw.add_kernel_cost(0, merged_n, 1,
                           applied == WireFormat::kBitmap
                               ? "wire_encode_bitmap"
                               : "wire_encode_varint",
                           vgpu::TraceCategory::kCombine);
      }
      const std::size_t bytes = merged.payload_bytes();
      // The gateway hop is a first-class fault-injection surface,
      // retried and backed off like any direct push.
      double backoff_s = 0.0;
      const double slowdown =
          consult_transfer_faults(static_cast<int>(g), dst, backoff_s);
      const double seconds =
          machine_->interconnect().transfer_seconds(static_cast<int>(g),
                                                    dst, bytes) *
              slowdown +
          backoff_s;
      // items = 0: the staged hops already counted every item once.
      gw.add_comm_cost(seconds, bytes, 0, gw.modeled_compute_time(),
                       "push_inter_node", dst);
      count_bytes(bytes, applied, /*inter_node=*/true);
      i = j;
    }
    recycle_all(staged);
  }
}

void CommBus::decode_batch(int dst, std::vector<Message>& batch) {
  // Issue the modeled decode charges first, sequentially in batch
  // order (decode resets encoding / wire_items), then decode — across
  // messages in parallel when a host pool is installed and more than
  // one message is encoded, since each message decodes into its own
  // buffers and raw ones are no-ops. The receiver's kernel-charge
  // sequence, and with it every modeled time and counter, is
  // bit-identical to the sequential path at any pool width.
  std::size_t encoded = 0;
  for (const Message& m : batch) {
    if (m.encoding == WireFormat::kRawIds) continue;
    ++encoded;
    // Modeled decode kernel: one launch touching n vertices, charged
    // to the receiver's compute timeline right before the combine work
    // it feeds. Identical across sync modes — both drain sender by
    // sender and decode each message exactly once.
    machine_->device(dst).add_kernel_cost(
        0, m.size(), 1,
        m.encoding == WireFormat::kBitmap ? "wire_decode_bitmap"
                                          : "wire_decode_varint",
        vgpu::TraceCategory::kCombine);
    wire_decoded_.fetch_add(m.size(), std::memory_order_relaxed);
  }
  util::parallel_for(encoded > 1 ? host_pool_ : nullptr, batch.size(), 1,
                     [&](std::size_t b, std::size_t e, std::size_t) {
                       for (std::size_t k = b; k < e; ++k) {
                         wire::decode(batch[k]);
                       }
                     });
}

std::vector<Message>& CommBus::drain_from(int dst, int src) {
  auto& batch = drained_[dst];
  // Never silently recycle: the combine loop alternates drain_from /
  // release_drained per sender, and a live batch here means the caller
  // is still (logically) combining it.
  MGG_CHECK(batch.empty(), Status::kInternal,
            "CommBus::drain_from(" + std::to_string(dst) + ", " +
                std::to_string(src) +
                "): previous drained batch was not recycled — call "
                "release_drained() before the next drain");
  {
    std::lock_guard<std::mutex> lock(locks_[dst]);
    // Stable partition: extract `src`'s messages, keep the rest in
    // arrival order. Both vectors retain their high-water capacity.
    // Guard the no-move case: self-move-assigning inbox[i] into itself
    // would leave the message's vectors empty (std::vector self-move
    // is destructive), silently dropping a peer's payload.
    auto& inbox = inboxes_[dst];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      if (inbox[i].src_gpu == src) {
        batch.push_back(std::move(inbox[i]));
      } else {
        if (kept != i) inbox[kept] = std::move(inbox[i]);
        ++kept;
      }
    }
    inbox.resize(kept);
  }
  // Within one sender, tags are unique per superstep; sorting by tag
  // (with the caller draining senders in ascending order) fixes the
  // combine order at (src_gpu, tag), so every downstream quantity (H
  // too, for primitives whose sends depend on combine order, e.g.
  // SSSP) is reproducible across runs and schedules.
  std::sort(batch.begin(), batch.end(),
            [](const Message& a, const Message& b) { return a.tag < b.tag; });
  decode_batch(dst, batch);
  return batch;
}

void CommBus::release_drained(int dst) {
  auto& batch = drained_[dst];
  // Staged cross-node messages move on to their gateway's relay
  // ledger; flush_relays() prices the hop from them and recycles them.
  const auto relayed =
      std::partition(batch.begin(), batch.end(),
                     [](const Message& m) { return m.relay_gateway < 0; });
  if (relayed != batch.end()) {
    std::lock_guard<std::mutex> lock(relay_mutex_);
    for (auto it = relayed; it != batch.end(); ++it) {
      relay_[it->relay_gateway].push_back(std::move(*it));
    }
    batch.erase(relayed, batch.end());
  }
  recycle_all(batch);
}

void CommBus::recycle_all(std::vector<Message>& messages) {
  if (messages.empty()) return;
  std::lock_guard<std::mutex> lock(pool_mutex_);
  for (Message& message : messages) {
    message.recycle();
    pool_.push_back(std::move(message));
  }
  messages.clear();
}

void CommBus::reset() {
  for (int d = 0; d < machine_->num_devices(); ++d) {
    {
      std::lock_guard<std::mutex> lock(locks_[d]);
      drained_[d].insert(drained_[d].end(),
                         std::make_move_iterator(inboxes_[d].begin()),
                         std::make_move_iterator(inboxes_[d].end()));
      inboxes_[d].clear();
    }
    release_drained(d);
  }
  // Recycle whatever the retiring run left in the relay ledger (the
  // staged messages released just above, and any superstep an aborted
  // run never flushed).
  std::lock_guard<std::mutex> lock(relay_mutex_);
  for (auto& staged : relay_) recycle_all(staged);
}

}  // namespace mgg::core
