// A machine: N virtual GPUs plus the interconnect joining them.
//
// Factory presets mirror the paper's three testbeds (§VII-A):
//   "k40"  — the 6x Tesla K40 node used for most results
//   "k80"  — 4x K80 boards = up to 8 logical GPUs (scaling study)
//   "p100" — 4x P100 PCIe (scaling study)
// Peer access is enabled in groups of 4 GPUs, as in the paper.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "vgpu/device.hpp"
#include "vgpu/interconnect.hpp"

namespace mgg::vgpu {

class Machine {
 public:
  Machine(GpuModel model, int num_gpus, int peer_group_size = 4,
          int node_size = 0);

  /// Build from a preset name ("k40", "k80", "p100").
  static Machine create(const std::string& preset, int num_gpus);

  /// §VIII scale-out topology: `nodes` nodes of `gpus_per_node` GPUs
  /// each, joined by an InfiniBand-class link. Device IDs are globally
  /// flat; the interconnect routes cross-node traffic over the slower
  /// link. The enactor's BSP machinery is topology-agnostic, so every
  /// primitive runs unchanged on a cluster machine.
  static Machine create_cluster(const std::string& preset,
                                int gpus_per_node, int nodes);

  int num_devices() const noexcept { return static_cast<int>(devices_.size()); }
  Device& device(int i) { return *devices_[i]; }
  const Device& device(int i) const { return *devices_[i]; }
  Interconnect& interconnect() noexcept { return interconnect_; }
  const Interconnect& interconnect() const noexcept { return interconnect_; }
  const GpuModel& model() const noexcept { return model_; }

  /// Apply the Table V ID-width configuration to all devices.
  void set_id_widths(const IdWidthConfig& config);

  /// Model a full-size dataset through a 1/k-scale analog: per-item
  /// compute time and transfer volume are multiplied by `scale` while
  /// kernel-launch and synchronization overheads stay fixed, placing
  /// the run in the same W : H : l regime as the paper's graphs. The
  /// bench harness sets scale = paper |E| / analog |E|.
  void set_workload_scale(double scale);

  /// Attach `tracer` to every device (nullptr detaches). The enactor
  /// picks it up from here to record superstep boundaries and waits.
  /// Attach before enacting, while the machine is idle.
  void set_tracer(Tracer* tracer);
  Tracer* tracer() const noexcept { return tracer_; }

  /// Attach `injector` to every device (allocation + kernel sites) and
  /// expose it to the comm/handshake layers (nullptr detaches). Attach
  /// before enacting, while the machine is idle. The injector must
  /// have been built for at least num_devices() devices.
  void set_fault_injector(FaultInjector* injector);
  FaultInjector* fault_injector() const noexcept { return fault_injector_; }

 private:
  GpuModel model_;
  std::vector<std::unique_ptr<Device>> devices_;
  Interconnect interconnect_;
  Tracer* tracer_ = nullptr;
  FaultInjector* fault_injector_ = nullptr;
};

}  // namespace mgg::vgpu
