// Inter-GPU interconnect model.
//
// §V-A: on the paper's K40 node, enabling peer access within a PCIe 3
// root hub raises GPU-GPU bandwidth from ~16 GB/s to ~20 GB/s and drops
// latency from ~25 µs to ~7.5 µs; the experimental setup enables peer
// access "in groups of 4 GPUs where appropriate". The interconnect
// reproduces that topology and also exposes the fault-injection knobs
// used by §V-A's experiments: artificially multiplying communication
// volume and latency.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace mgg::vgpu {

struct LinkParams {
  double bandwidth = 16e9;  ///< bytes/s
  double latency = 25e-6;   ///< seconds per message

  static LinkParams pcie_peer() { return {20e9, 7.5e-6}; }
  static LinkParams pcie_host_routed() { return {16e9, 25e-6}; }
  /// FDR InfiniBand-class node-to-node link (§VIII scale-out study):
  /// markedly lower bandwidth and higher latency than intra-node PCIe.
  static LinkParams infiniband() { return {6e9, 30e-6}; }
};

class Interconnect {
 public:
  /// `peer_group_size` devices share a root hub and get peer links;
  /// traffic across hubs is routed through the host. When
  /// `node_size > 0`, devices are additionally grouped into nodes of
  /// that size and cross-node traffic uses the `internode` link —
  /// the §VIII scale-out topology.
  Interconnect(int num_devices, int peer_group_size = 4,
               LinkParams peer = LinkParams::pcie_peer(),
               LinkParams cross = LinkParams::pcie_host_routed(),
               int node_size = 0,
               LinkParams internode = LinkParams::infiniband());

  int num_devices() const noexcept { return num_devices_; }
  bool is_peer(int src, int dst) const;
  bool same_node(int src, int dst) const;
  LinkParams link(int src, int dst) const;

  /// Node hierarchy metadata (§VIII scale-out topologies). A machine
  /// with `node_size == 0` is a single node: has_nodes() is false,
  /// node_of() returns 0 for every device, and same_node() is always
  /// true.
  bool has_nodes() const noexcept { return node_size_ > 0; }
  int node_size() const noexcept { return node_size_; }
  int num_nodes() const noexcept {
    return node_size_ > 0 ? num_devices_ / node_size_ : 1;
  }
  int node_of(int device) const noexcept {
    return node_size_ > 0 ? device / node_size_ : 0;
  }
  /// Deterministic gateway election for the two-level combine: the
  /// device in src's node that relays traffic bound for dst's node.
  /// Spreading by destination node (`dst_node % node_size`) keeps the
  /// relay load balanced across the node's devices instead of funneling
  /// every outbound bucket through device 0. Requires has_nodes().
  int gateway(int src, int dst) const;

  /// Modeled seconds to move `bytes` from src to dst, including the
  /// §V-A injection multipliers.
  double transfer_seconds(int src, int dst, std::size_t bytes) const;

  /// §V-A fault injection: scale every transfer's volume (H) by `m`.
  void set_volume_multiplier(double m) { volume_multiplier_ = m; }
  double volume_multiplier() const { return volume_multiplier_; }

  /// §V-A fault injection: scale message latency by `m` (the paper
  /// tried 10x and saw no appreciable performance difference).
  void set_latency_multiplier(double m) { latency_multiplier_ = m; }

  /// Cumulative count of transfers that moved bytes.
  std::uint64_t total_messages() const {
    return messages_->load(std::memory_order_relaxed);
  }
  void record_transfer() const {
    messages_->fetch_add(1, std::memory_order_relaxed);
  }

  Interconnect(Interconnect&&) = default;
  Interconnect& operator=(Interconnect&&) = default;

 private:
  int num_devices_;
  int peer_group_size_;
  LinkParams peer_;
  LinkParams cross_;
  int node_size_;
  LinkParams internode_;
  double volume_multiplier_ = 1.0;
  double latency_multiplier_ = 1.0;
  /// Heap-held so the Interconnect (and Machine) stay movable despite
  /// the atomic.
  std::unique_ptr<std::atomic<std::uint64_t>> messages_ =
      std::make_unique<std::atomic<std::uint64_t>>(0);
};

}  // namespace mgg::vgpu
