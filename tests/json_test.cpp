// Tests for the JSON writer and run-stats export.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>

#include "primitives/bfs.hpp"
#include "test_support.hpp"
#include "util/json.hpp"
#include "vgpu/stats_io.hpp"

namespace mgg {
namespace {

TEST(Json, ObjectsArraysAndCommas) {
  util::JsonWriter w;
  w.begin_object();
  w.key("a").value(1ll);
  w.key("b").begin_array();
  w.value(1.5).value("x").value(true);
  w.end_array();
  w.key("c").begin_object();
  w.key("nested").value(2ll);
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[1.5,"x",true],"c":{"nested":2}})");
}

TEST(Json, EscapesSpecials) {
  util::JsonWriter w;
  w.begin_object();
  w.key("quote\"back\\slash").value("line\nbreak\ttab");
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"quote\\\"back\\\\slash\":\"line\\nbreak\\ttab\"}");
}

TEST(Json, NonFiniteBecomesNull) {
  util::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::nan(""));
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Json, SaveAndReload) {
  util::JsonWriter w;
  w.begin_object();
  w.key("x").value(42ll);
  w.end_object();
  const std::string path = "/tmp/mgg_json_test.json";
  w.save(path);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, R"({"x":42})");
}

TEST(StatsIo, RunStatsExportContainsEverything) {
  const auto g = test::small_rmat();
  auto machine = test::test_machine(3);
  core::Config cfg;
  cfg.num_gpus = 3;
  prim::BfsProblem problem;
  problem.init(g, machine, cfg);
  prim::BfsEnactor enactor(problem);
  enactor.reset(test::first_connected_vertex(g));
  const auto stats = enactor.enact();

  const std::string json =
      vgpu::run_stats_to_json(stats, enactor.iteration_records());
  EXPECT_NE(json.find("\"iterations\":" + std::to_string(stats.iterations)),
            std::string::npos);
  EXPECT_NE(json.find("\"modeled_total_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"iterations_detail\":["), std::string::npos);
  // One detail object per superstep.
  std::size_t count = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"frontier\":", pos)) != std::string::npos; ++pos) {
    ++count;
  }
  EXPECT_EQ(count, stats.iterations);
}

TEST(StatsIo, FaultRecoveryCountersRoundTrip) {
  vgpu::RunStats stats;
  stats.oom_regrows = 3;
  stats.comm_retries = 5;
  stats.faults_injected = 7;
  stats.degraded_reruns = 1;
  stats.watchdog_deadline_s = 0.25;
  const std::string json = vgpu::run_stats_to_json(stats, {});
  EXPECT_NE(json.find("\"oom_regrows\":3"), std::string::npos);
  EXPECT_NE(json.find("\"comm_retries\":5"), std::string::npos);
  EXPECT_NE(json.find("\"faults_injected\":7"), std::string::npos);
  EXPECT_NE(json.find("\"degraded_reruns\":1"), std::string::npos);
  EXPECT_NE(json.find("\"watchdog_deadline_s\":0.25"), std::string::npos);
}

TEST(StatsIo, FaultFreeRunExportsZeroFaultCounters) {
  const auto g = test::small_rmat();
  auto machine = test::test_machine(2);
  core::Config cfg;
  cfg.num_gpus = 2;
  prim::BfsProblem problem;
  problem.init(g, machine, cfg);
  prim::BfsEnactor enactor(problem);
  enactor.reset(test::first_connected_vertex(g));
  const auto stats = enactor.enact();
  EXPECT_EQ(stats.oom_regrows, 0u);
  EXPECT_EQ(stats.comm_retries, 0u);
  EXPECT_EQ(stats.faults_injected, 0u);
  EXPECT_EQ(stats.degraded_reruns, 0u);
  const std::string json =
      vgpu::run_stats_to_json(stats, enactor.iteration_records());
  EXPECT_NE(json.find("\"oom_regrows\":0"), std::string::npos);
  EXPECT_NE(json.find("\"faults_injected\":0"), std::string::npos);
}

TEST(StatsIo, EveryNumericRunStatsFieldRoundTrips) {
  // Exhaustive field coverage: a RunStats stuffed with distinct
  // sentinel values must surface every numeric field in the JSON with
  // its exact value. A field added to RunStats but forgotten in
  // run_stats_to_json fails here (the per-format wire counters were
  // exactly that kind of omission risk).
  vgpu::RunStats stats;
  stats.iterations = 101;
  stats.total_edges = 102;
  stats.total_vertices = 103;
  stats.total_comm_items = 104;
  stats.total_combine_items = 105;
  stats.total_comm_bytes = 106;
  stats.total_launches = 107;
  stats.dense_switches = 108;
  stats.modeled_compute_s = 0.109;
  stats.modeled_comm_s = 0.11;
  stats.modeled_overhead_s = 0.111;
  stats.modeled_overlap_hidden_s = 0.112;
  stats.wall_s = 0.113;
  stats.oom_regrows = 114;
  stats.comm_retries = 115;
  stats.faults_injected = 116;
  stats.degraded_reruns = 117;
  stats.watchdog_deadline_s = 0.118;
  stats.wire_bytes_raw = 119;
  stats.wire_bytes_bitmap = 120;
  stats.wire_bytes_delta = 121;
  stats.wire_encode_vertices = 122;
  stats.wire_decode_vertices = 123;
  stats.intra_node_bytes = 124;
  stats.inter_node_bytes = 125;
  stats.gateway_merges = 126;
  stats.gateway_dedup_items = 127;
  const std::string json = vgpu::run_stats_to_json(stats, {});
  const std::pair<const char*, std::string> expected[] = {
      {"iterations", "101"},
      {"total_edges", "102"},
      {"total_vertices", "103"},
      {"total_comm_items", "104"},
      {"total_combine_items", "105"},
      {"total_comm_bytes", "106"},
      {"total_launches", "107"},
      {"dense_switches", "108"},
      {"modeled_compute_s", "0.109"},
      {"modeled_comm_s", "0.11"},
      {"modeled_overhead_s", "0.111"},
      {"modeled_overlap_hidden_s", "0.112"},
      {"wall_s", "0.113"},
      {"oom_regrows", "114"},
      {"comm_retries", "115"},
      {"faults_injected", "116"},
      {"degraded_reruns", "117"},
      {"watchdog_deadline_s", "0.118"},
      {"wire_bytes_raw", "119"},
      {"wire_bytes_bitmap", "120"},
      {"wire_bytes_delta", "121"},
      {"wire_encode_vertices", "122"},
      {"wire_decode_vertices", "123"},
      {"intra_node_bytes", "124"},
      {"inter_node_bytes", "125"},
      {"gateway_merges", "126"},
      {"gateway_dedup_items", "127"},
  };
  for (const auto& [key, value] : expected) {
    std::string needle = "\"";
    needle.append(key).append("\":").append(value);
    EXPECT_NE(json.find(needle), std::string::npos)
        << "missing " << needle << " in " << json;
  }
}

TEST(StatsIo, WireCountersRoundTripFromRealCompressedRun) {
  const auto g = test::small_rmat();
  auto machine = test::test_machine(4);
  core::Config cfg;
  cfg.num_gpus = 4;
  cfg.wire_format = core::WireFormat::kAuto;
  prim::BfsProblem problem;
  problem.init(g, machine, cfg);
  prim::BfsEnactor enactor(problem);
  enactor.reset(test::first_connected_vertex(g));
  const auto stats = enactor.enact();
  EXPECT_GT(stats.wire_encode_vertices, 0u);
  EXPECT_EQ(stats.wire_bytes_raw + stats.wire_bytes_bitmap +
                stats.wire_bytes_delta,
            stats.total_comm_bytes);
  const std::string json =
      vgpu::run_stats_to_json(stats, enactor.iteration_records());
  EXPECT_NE(json.find("\"wire_bytes_raw\":" +
                      std::to_string(stats.wire_bytes_raw)),
            std::string::npos);
  EXPECT_NE(json.find("\"wire_bytes_delta\":" +
                      std::to_string(stats.wire_bytes_delta)),
            std::string::npos);
  EXPECT_NE(json.find("\"wire_encode_vertices\":" +
                      std::to_string(stats.wire_encode_vertices)),
            std::string::npos);
}

}  // namespace
}  // namespace mgg
