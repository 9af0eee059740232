// Shared helpers for graph primitives.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "graph/types.hpp"
#include "partition/partitioned_graph.hpp"
#include "util/error.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/machine.hpp"

namespace mgg::prim {

/// Degraded re-enact (Config::degrade_on_device_loss): run `body` with
/// the given config; if it fails with kUnavailable *and* the machine's
/// fault injector marked a device permanently lost, acknowledge the
/// loss (disarming the dead device's permanent faults — the surviving
/// GPUs are renumbered onto the remaining device slots) and re-run the
/// whole primitive from scratch on n-1 vGPUs. The rerun recomputes a
/// full, correct result; RunStats::degraded_reruns records that it
/// happened. Any other failure — or a loss with the feature off, a
/// single-GPU run, or no injector — propagates unchanged.
///
/// `body` must be re-entrant: it receives the config by value and
/// rebuilds problem + enactor itself, so the failed run's state is
/// discarded wholesale.
template <typename Body>
auto run_with_degrade(vgpu::Machine& machine, const core::Config& config,
                      Body&& body) -> decltype(body(config)) {
  try {
    return body(config);
  } catch (const Error& e) {
    if (e.status() != Status::kUnavailable ||
        !config.degrade_on_device_loss || config.num_gpus <= 1) {
      throw;
    }
    vgpu::FaultInjector* injector = machine.fault_injector();
    if (injector == nullptr || injector->lost_device() < 0) throw;
    injector->acknowledge_device_loss();
    core::Config degraded = config;
    degraded.num_gpus = config.num_gpus - 1;
    auto result = body(degraded);
    result.stats.degraded_reruns += 1;
    return result;
  }
}

/// Gather a per-vertex result distributed across GPUs back into one
/// global array: for every global vertex, read the value its *host*
/// GPU computed (each GPU is authoritative only for hosted vertices).
template <typename T, typename Getter>
std::vector<T> gather_vertex_values(const part::PartitionedGraph& pg,
                                    Getter&& get) {
  std::vector<T> out(pg.global_vertices());
  for (VertexT v = 0; v < pg.global_vertices(); ++v) {
    out[v] = get(pg.owner_of(v), pg.host_local_of(v));
  }
  return out;
}

/// Visit every local copy of global vertex `v` as fn(gpu, local_id):
/// the host copy, plus the duplicate-all replica (local == global ID)
/// or the 1-hop proxy on every other GPU that has one — how a reset
/// places a source so no GPU re-discovers it.
template <typename Fn>
void for_each_copy(const core::ProblemBase& p, VertexT v, Fn&& fn) {
  const auto [host, host_local] = p.locate(v);
  for (int gpu = 0; gpu < p.num_gpus(); ++gpu) {
    if (gpu == host) {
      fn(gpu, host_local);
    } else if (p.config().duplication == part::Duplication::kAll) {
      fn(gpu, v);
    } else {
      // Proxies are the tail of the local numbering; a linear scan is
      // fine at reset time.
      const part::SubGraph& s = p.sub(gpu);
      for (VertexT lv = s.num_local; lv < s.num_total(); ++lv) {
        if (s.local_to_global[lv] == v) {
          fn(gpu, lv);
          break;
        }
      }
    }
  }
}

/// Local vertex IDs hosted by GPU `gpu` (the L_i set), in local-ID order.
std::vector<VertexT> hosted_vertices(const part::SubGraph& sub);

/// Local vertex IDs of proxies on GPU `gpu` (remote-hosted vertices
/// that appear in the local vertex set): the outgoing border B_i as a
/// concrete list.
std::vector<VertexT> proxy_vertices(const part::SubGraph& sub);

}  // namespace mgg::prim
