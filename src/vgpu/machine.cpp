#include "vgpu/machine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mgg::vgpu {

GpuModel GpuModel::by_name(const std::string& name) {
  if (name == "k40" || name == "K40") return k40();
  if (name == "k80" || name == "K80") return k80();
  if (name == "p100" || name == "P100") return p100();
  if (name == "apu" || name == "APU") return apu();
  throw Error(Status::kNotFound, "unknown GPU model '" + name + "'");
}

Machine::Machine(GpuModel model, int num_gpus, int peer_group_size,
                 int node_size)
    : model_(std::move(model)),
      interconnect_(num_gpus, peer_group_size, LinkParams::pcie_peer(),
                    LinkParams::pcie_host_routed(), node_size) {
  MGG_REQUIRE(num_gpus >= 1, "machine needs at least one GPU");
  devices_.reserve(num_gpus);
  for (int i = 0; i < num_gpus; ++i) {
    devices_.push_back(std::make_unique<Device>(i, model_));
  }
}

Machine Machine::create(const std::string& preset, int num_gpus) {
  return Machine(GpuModel::by_name(preset), num_gpus);
}

Machine Machine::create_cluster(const std::string& preset,
                                int gpus_per_node, int nodes) {
  MGG_REQUIRE(gpus_per_node >= 1 && nodes >= 1, "bad cluster shape");
  // Nodes narrower than the default PCIe peer group (4) shrink the
  // group to the node — Interconnect rejects nodes that split a group.
  const int peer_group = std::min(4, gpus_per_node);
  return Machine(GpuModel::by_name(preset), gpus_per_node * nodes,
                 peer_group, /*node_size=*/gpus_per_node);
}

void Machine::set_id_widths(const IdWidthConfig& config) {
  for (auto& device : devices_) {
    device->set_id_scale(config.traffic_scale());
  }
}

void Machine::set_workload_scale(double scale) {
  MGG_REQUIRE(scale > 0, "workload scale must be positive");
  for (auto& device : devices_) device->set_workload_scale(scale);
  interconnect_.set_volume_multiplier(scale);
}

void Machine::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  for (auto& device : devices_) device->set_tracer(tracer);
  if (fault_injector_ != nullptr) fault_injector_->set_tracer(tracer);
}

void Machine::set_fault_injector(FaultInjector* injector) {
  if (injector != nullptr) {
    MGG_REQUIRE(injector->num_devices() >= num_devices(),
                "fault injector built for fewer devices than the machine");
    injector->set_tracer(tracer_);
  }
  fault_injector_ = injector;
  for (auto& device : devices_) device->set_fault_injector(injector);
}

}  // namespace mgg::vgpu
