// Hierarchical-topology suite (docs/architecture.md §14): the node
// metadata and gateway election on vgpu::Interconnect (Hierarchy.*)
// and the two-level combine's observable contract (TwoLevel.*) — the
// staged relay is a cost/byte model only, so results and every
// item-shaped counter must be bit-identical to the flat path across
// sync schedules and wire formats, while the byte split
// intra_node_bytes + inter_node_bytes must partition total_comm_bytes
// and the gateway merge/dedup counters must engage exactly when the
// relay does.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "config_space.hpp"
#include "core/comm.hpp"
#include "core/problem.hpp"
#include "primitives/bfs.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/interconnect.hpp"
#include "vgpu/machine.hpp"

namespace mgg {
namespace {

using vgpu::Interconnect;
using vgpu::LinkParams;

bool same_link(const LinkParams& a, const LinkParams& b) {
  return a.bandwidth == b.bandwidth && a.latency == b.latency;
}

// ---------------------------------------------------------------------
// Hierarchy.*: interconnect shape validation, link classification,
// gateway election.
// ---------------------------------------------------------------------

TEST(Hierarchy, CtorRejectsNodeSizeNotMultipleOfPeerGroup) {
  // node_size 6 splits a peer group of 4 across two nodes.
  try {
    Interconnect net(12, 4, LinkParams::pcie_peer(),
                     LinkParams::pcie_host_routed(), /*node_size=*/6);
    FAIL() << "expected kInvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kInvalidArgument);
    const std::string what = e.what();
    EXPECT_NE(what.find("6"), std::string::npos) << what;
    EXPECT_NE(what.find("4"), std::string::npos) << what;
  }
}

TEST(Hierarchy, CtorRejectsDevicesNotCoveredByWholeNodes) {
  // 10 devices cannot be tiled by nodes of 4.
  try {
    Interconnect net(10, 2, LinkParams::pcie_peer(),
                     LinkParams::pcie_host_routed(), /*node_size=*/4);
    FAIL() << "expected kInvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kInvalidArgument);
    const std::string what = e.what();
    EXPECT_NE(what.find("10"), std::string::npos) << what;
    EXPECT_NE(what.find("4"), std::string::npos) << what;
  }
}

TEST(Hierarchy, CtorAcceptsValidShapes) {
  EXPECT_NO_THROW(Interconnect(8, 4, LinkParams::pcie_peer(),
                               LinkParams::pcie_host_routed(), 4));
  EXPECT_NO_THROW(Interconnect(8, 2, LinkParams::pcie_peer(),
                               LinkParams::pcie_host_routed(), 2));
  EXPECT_NO_THROW(Interconnect(8, 4));  // node_size = 0: single node
}

TEST(Hierarchy, LinkClassificationMatrix) {
  // Full (src, dst) classification over the three bench shapes:
  // 1x8 (single node), 2x4, 4x2. Every pair must resolve to exactly
  // the preset its topology class dictates: peer links inside a peer
  // group, host-routed across groups in one node, InfiniBand across
  // nodes.
  struct Shape {
    const char* name;
    int gpus_per_node;
    int nodes;
  };
  const Shape shapes[] = {{"1x8", 8, 1}, {"2x4", 4, 2}, {"4x2", 2, 4}};
  for (const Shape& s : shapes) {
    auto machine =
        vgpu::Machine::create_cluster("k40", s.gpus_per_node, s.nodes);
    const Interconnect& net = machine.interconnect();
    const int n = net.num_devices();
    ASSERT_EQ(n, s.gpus_per_node * s.nodes) << s.name;
    EXPECT_TRUE(net.has_nodes()) << s.name;
    EXPECT_EQ(net.num_nodes(), s.nodes) << s.name;
    EXPECT_EQ(net.node_size(), s.gpus_per_node) << s.name;
    const int peer_group = std::min(4, s.gpus_per_node);
    for (int src = 0; src < n; ++src) {
      EXPECT_EQ(net.node_of(src), src / s.gpus_per_node) << s.name;
      for (int dst = 0; dst < n; ++dst) {
        const std::string label = std::string(s.name) + " link " +
                                  std::to_string(src) + "->" +
                                  std::to_string(dst);
        const bool same_node = src / s.gpus_per_node == dst / s.gpus_per_node;
        const bool same_group = src / peer_group == dst / peer_group;
        EXPECT_EQ(net.same_node(src, dst), same_node) << label;
        const LinkParams got = net.link(src, dst);
        if (!same_node) {
          EXPECT_TRUE(same_link(got, LinkParams::infiniband())) << label;
        } else if (same_group) {
          EXPECT_TRUE(same_link(got, LinkParams::pcie_peer())) << label;
        } else {
          EXPECT_TRUE(same_link(got, LinkParams::pcie_host_routed()))
              << label;
        }
      }
    }
  }
}

TEST(Hierarchy, GatewayElectionIsDeterministicAndInSourceNode) {
  for (const auto& [gpus_per_node, nodes] : {std::pair{4, 2}, {2, 4}}) {
    auto machine =
        vgpu::Machine::create_cluster("k40", gpus_per_node, nodes);
    const Interconnect& net = machine.interconnect();
    const int n = net.num_devices();
    for (int src = 0; src < n; ++src) {
      std::set<int> gateways_of_node;
      for (int dst = 0; dst < n; ++dst) {
        const int g = net.gateway(src, dst);
        ASSERT_GE(g, 0);
        ASSERT_LT(g, n);
        // The gateway lives in the *source* node (it relays outbound).
        EXPECT_EQ(net.node_of(g), net.node_of(src));
        // Pure function of (src node, dst node): every sender in the
        // node elects the same relay for a given destination node.
        for (int src2 = 0; src2 < n; ++src2) {
          if (net.node_of(src2) != net.node_of(src)) continue;
          EXPECT_EQ(net.gateway(src2, dst), g);
        }
        gateways_of_node.insert(g);
      }
      // Relay load spreads across the node's devices by destination
      // node instead of funneling through device 0.
      const std::size_t expect_spread = static_cast<std::size_t>(
          std::min(net.num_nodes(), net.node_size()));
      EXPECT_EQ(gateways_of_node.size(), expect_spread);
    }
  }
}

TEST(Hierarchy, GatewayRequiresNodesAndValidDevices) {
  auto flat = test::test_machine(4);  // node_size = 0
  EXPECT_THROW(flat.interconnect().gateway(0, 1), Error);
  auto cluster = vgpu::Machine::create_cluster("k40", 2, 2);
  EXPECT_THROW(cluster.interconnect().gateway(-1, 0), Error);
  EXPECT_THROW(cluster.interconnect().gateway(0, 4), Error);
}

TEST(Hierarchy, CreateClusterClampsPeerGroupToNarrowNodes) {
  // Nodes of 2 or 3 GPUs are narrower than the default peer group (4);
  // the factory shrinks the group to the node so the shape validation
  // accepts it.
  auto m2 = vgpu::Machine::create_cluster("k40", 2, 3);
  EXPECT_EQ(m2.num_devices(), 6);
  EXPECT_EQ(m2.interconnect().num_nodes(), 3);
  EXPECT_EQ(m2.interconnect().node_of(4), 2);
  EXPECT_TRUE(m2.interconnect().is_peer(0, 1));
  auto m3 = vgpu::Machine::create_cluster("k40", 3, 2);
  EXPECT_EQ(m3.interconnect().num_nodes(), 2);
  EXPECT_THROW(vgpu::Machine::create_cluster("k40", 0, 2), Error);
}

// ---------------------------------------------------------------------
// TwoLevel.*: bit-identity, byte partition, counter engagement, the
// single-node no-op, and the gateway-hop fault site.
// ---------------------------------------------------------------------

core::Config cluster_config(int gpus, core::SyncMode mode,
                            core::WireFormat f, bool two_level) {
  core::Config cfg = test::config_for(gpus);
  cfg.sync_mode = mode;
  cfg.wire_format = f;
  cfg.two_level_combine = two_level;
  return cfg;
}

void expect_same_items(const vgpu::RunStats& base, const vgpu::RunStats& got,
                       const std::string& label) {
  EXPECT_EQ(base.iterations, got.iterations) << label;
  EXPECT_EQ(base.total_edges, got.total_edges) << label;
  EXPECT_EQ(base.total_comm_items, got.total_comm_items) << label;
  EXPECT_EQ(base.total_combine_items, got.total_combine_items) << label;
}

// Each two-level draw reruns flat and must keep results and item
// counters, and ship no more inter-node bytes (tests/config_space.hpp).
TEST(TwoLevel, BfsBitIdenticalToFlatAcrossModesAndFormats) {
  const auto g = test::small_rmat();
  for (const core::SyncMode mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    for (const core::WireFormat f :
         {core::WireFormat::kRawIds, core::WireFormat::kBitmap,
          core::WireFormat::kDeltaVarint, core::WireFormat::kAuto}) {
      const auto two = test::space::expect_holds(
          g, {.gpus = 4,
              .nodes = 2,
              .cfg = {.sync_mode = mode,
                      .mark_predecessors = true,
                      .wire_format = f,
                      .two_level_combine = true}});
      // The 2x2 cluster forces cross-node traffic for this graph.
      EXPECT_GT(two.stats.inter_node_bytes, 0u);
      EXPECT_GT(two.stats.gateway_merges, 0u);
    }
  }
}

TEST(TwoLevel, SsspBitIdenticalToFlatOnWideCluster) {
  // SSSP is emission-order sensitive: a relay that perturbed delivery
  // order would change the frontier and H. 4x2 puts three quarters of
  // the traffic on the staged path.
  const auto g = test::small_weighted_rmat();
  for (const core::SyncMode mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    const auto two = test::space::expect_holds(
        g, {.prim = test::space::Prim::kSssp,
            .gpus = 8,
            .nodes = 4,
            .cfg = {.sync_mode = mode,
                    .wire_format = core::WireFormat::kAuto,
                    .two_level_combine = true}});
    EXPECT_GT(two.stats.gateway_merges, 0u);
  }
}

// Under a forced bitmap the per-sender pushes of these draws fall back
// to varint, and a gateway that re-encoded the merged (ascending)
// payload as a bitmap shipped more inter-node bytes than the flat
// pushes (502 vs 315 and 638 vs 350). The gateway takes the merged
// payload's smallest encoding instead.
TEST(TwoLevel, ForcedBitmapGatewayShipsNoMoreThanFlat) {
  const test::space::Draw draws[] = {
      {.prim = test::space::Prim::kBfs,
       .gpus = 2,
       .nodes = 2,
       .sources = {149},
       .cfg = {.partitioner = "random",
               .duplication = part::Duplication::kOneHop,
               .sync_mode = core::SyncMode::kEventPipeline,
               .scheme = vgpu::AllocationScheme::kJustEnough,
               .wire_format = core::WireFormat::kBitmap,
               .two_level_combine = true}},
      {.prim = test::space::Prim::kDobfs,
       .gpus = 2,
       .nodes = 2,
       .sources = {106},
       .cfg = {.partitioner = "chunk",
               .sync_mode = core::SyncMode::kEventPipeline,
               .scheme = vgpu::AllocationScheme::kMax,
               .wire_format = core::WireFormat::kBitmap,
               .two_level_combine = true}},
  };
  const std::uint64_t graph_seeds[] = {8746175259331310815ull,
                                       13919429326818078600ull};
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE("draw " + std::to_string(i + 1));
    const auto two = test::space::expect_holds(
        test::space::family_graph("grid", graph_seeds[i]), draws[i]);
    EXPECT_GT(two.stats.inter_node_bytes, 0u);
    EXPECT_GT(two.stats.gateway_merges, 0u);
  }
}

TEST(TwoLevel, SingleNodeMachineIsANoOp) {
  // two_level_combine on a machine without a node hierarchy must be
  // ignored: no relays, no inter-node bytes, stats identical to the
  // flag being off.
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  auto m_off = test::test_machine(4);
  core::Config off_cfg = test::config_for(4);
  const auto off = prim::run_bfs(g, src, m_off, off_cfg);
  auto m_on = test::test_machine(4);
  core::Config on_cfg = test::config_for(4);
  on_cfg.two_level_combine = true;
  const auto on = prim::run_bfs(g, src, m_on, on_cfg);
  EXPECT_EQ(off.labels, on.labels);
  expect_same_items(off.stats, on.stats, "single-node");
  EXPECT_EQ(on.stats.total_comm_bytes, off.stats.total_comm_bytes);
  EXPECT_EQ(on.stats.inter_node_bytes, 0u);
  EXPECT_EQ(on.stats.intra_node_bytes, on.stats.total_comm_bytes);
  EXPECT_EQ(on.stats.gateway_merges, 0u);
  EXPECT_EQ(on.stats.gateway_dedup_items, 0u);
}

TEST(TwoLevel, GatewayHopIsAFaultSiteWithRetryRecovery) {
  // The merged inter-node hop must consult the (gateway, dst) transfer
  // fault site. On the 2x2 cluster, gateway(src in node 0, dst in
  // node 1) = device 1, so a transient burst on link 1->2 only fires
  // when the relay flush pushes — a fault-free-identical recovery
  // proves both that the site is consulted and that retry/backoff
  // covers it.
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  const core::Config cfg =
      cluster_config(4, core::SyncMode::kBspBarrier,
                     core::WireFormat::kRawIds, true);

  auto m_golden = vgpu::Machine::create_cluster("k40", 2, 2);
  const auto golden = prim::run_bfs(g, src, m_golden, cfg);
  ASSERT_EQ(m_golden.interconnect().gateway(0, 2), 1);

  vgpu::FaultSpec spec;
  spec.kind = vgpu::FaultKind::kTransferTransient;
  spec.device = 1;
  spec.peer = 2;
  spec.at_event = 0;
  spec.count = 2;  // < Config::max_comm_retries (3)
  vgpu::FaultPlan plan;
  plan.specs.push_back(spec);
  auto machine = vgpu::Machine::create_cluster("k40", 2, 2);
  vgpu::FaultInjector injector(plan, machine.num_devices());
  machine.set_fault_injector(&injector);
  const auto got = prim::run_bfs(g, src, machine, cfg);
  EXPECT_EQ(got.stats.comm_retries, 2u);
  EXPECT_EQ(got.stats.faults_injected, 2u);
  EXPECT_EQ(got.labels, golden.labels);
  expect_same_items(golden.stats, got.stats, "gateway fault");
  EXPECT_GE(got.stats.modeled_comm_s, golden.stats.modeled_comm_s);
}

TEST(TwoLevel, GatewayHopRetryExhaustionSurfacesUnavailable) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  vgpu::FaultSpec spec;
  spec.kind = vgpu::FaultKind::kTransferTransient;
  spec.device = 1;
  spec.peer = 2;
  spec.at_event = 0;
  spec.count = 1u << 20;  // never clears within the budget
  vgpu::FaultPlan plan;
  plan.specs.push_back(spec);
  auto machine = vgpu::Machine::create_cluster("k40", 2, 2);
  vgpu::FaultInjector injector(plan, machine.num_devices());
  machine.set_fault_injector(&injector);
  core::Config cfg = cluster_config(4, core::SyncMode::kBspBarrier,
                                    core::WireFormat::kRawIds, true);
  prim::BfsProblem problem;
  problem.init(g, machine, cfg);
  prim::BfsEnactor enactor(problem);
  enactor.reset(src);
  try {
    enactor.enact();
    FAIL() << "expected retry exhaustion on the gateway hop";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kUnavailable) << e.what();
  }
  // The enactor stays reusable once the injector is detached.
  machine.set_fault_injector(nullptr);
  enactor.reset(src);
  EXPECT_NO_THROW(enactor.enact());
}

TEST(TwoLevel, GatewayFailoverElectsNextLiveDeviceInNode) {
  // When the elected relay is the permanently lost device, CommBus
  // must deterministically re-elect the next live device of the source
  // node rather than staging relays through a dead gateway.
  auto machine = vgpu::Machine::create_cluster("k40", 2, 2);
  core::CommBus bus(machine);
  const vgpu::Interconnect& net = machine.interconnect();
  // Fault-free election is the interconnect formula.
  ASSERT_EQ(net.gateway(0, 2), 1);
  EXPECT_EQ(bus.elect_gateway(0, 2), 1);
  EXPECT_EQ(bus.elect_gateway(1, 3), 1);
  EXPECT_EQ(bus.elect_gateway(2, 0), 2);

  // Permanently lose device 1, the elected node-0 relay toward node 1.
  vgpu::FaultSpec spec;
  spec.kind = vgpu::FaultKind::kKernelFault;
  spec.device = 1;
  spec.at_event = 0;
  vgpu::FaultPlan plan;
  plan.specs.push_back(spec);
  vgpu::FaultInjector injector(plan, machine.num_devices());
  machine.set_fault_injector(&injector);
  (void)injector.on_kernel(1);
  ASSERT_EQ(injector.lost_device(), 1);

  // Deterministic failover: the next live device in the SOURCE node
  // (device 0), repeatedly — election is stateless.
  EXPECT_EQ(bus.elect_gateway(0, 2), 0);
  EXPECT_EQ(bus.elect_gateway(0, 2), 0);
  EXPECT_EQ(bus.elect_gateway(1, 3), 0);
  // Relays whose elected gateway is not the lost device are untouched.
  EXPECT_EQ(bus.elect_gateway(2, 0), 2);

  // Acknowledging the loss (degraded re-enact / lane restart) restores
  // the formula gateway.
  injector.acknowledge_device_loss();
  EXPECT_EQ(injector.lost_device(), -1);
  EXPECT_EQ(bus.elect_gateway(0, 2), 1);
}

}  // namespace
}  // namespace mgg
