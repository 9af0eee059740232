// Tracer subsystem tests (ISSUE 4 tentpole).
//
// The two properties the tracer must keep:
//   1. Observation-only: results, W/H counters, and modeled times are
//      bit-identical with tracing on vs off (the differential suite —
//      EXPECT_EQ on doubles, no tolerance).
//   2. Faithful: the emitted Chrome trace is valid JSON whose
//      per-track span sums reconcile with the enactor's
//      RunStats/IterationRecord totals, and the bottleneck report's
//      compute/exposed-comm/sync split sums to modeled_total_s.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "primitives/bfs.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/sssp.hpp"
#include "test_support.hpp"
#include "vgpu/stats_io.hpp"
#include "vgpu/trace.hpp"

namespace mgg {
namespace {

// ---------------------------------------------------------------------
// A minimal recursive-descent JSON parser, just enough to validate the
// emitted trace without adding a dependency.
// ---------------------------------------------------------------------
struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  const JsonObject& object() const { return std::get<JsonObject>(v); }
  const JsonArray& array() const { return std::get<JsonArray>(v); }
  double number() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }

  bool has(const std::string& key) const {
    return is_object() && object().count(key) != 0;
  }
  const JsonValue& at(const std::string& key) const {
    return object().at(key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(i_);
    }
    i_ = s_.size();  // unwind
  }
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  char peek() {
    skip_ws();
    return i_ < s_.size() ? s_[i_] : '\0';
  }
  bool consume(char c) {
    if (peek() == c) {
      ++i_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't': return literal("true", JsonValue{true});
      case 'f': return literal("false", JsonValue{false});
      case 'n': return literal("null", JsonValue{nullptr});
      default: return JsonValue{number()};
    }
  }

  JsonValue literal(const char* word, JsonValue v) {
    skip_ws();
    for (const char* p = word; *p != '\0'; ++p, ++i_) {
      if (i_ >= s_.size() || s_[i_] != *p) {
        fail("bad literal");
        return JsonValue{};
      }
    }
    return v;
  }

  std::string string() {
    if (!consume('"')) {
      fail("expected string");
      return {};
    }
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) break;
        const char esc = s_[i_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // \uXXXX — decode not needed for validation; skip digits.
            for (int k = 0; k < 4 && i_ < s_.size(); ++k) {
              if (!std::isxdigit(static_cast<unsigned char>(s_[i_]))) {
                fail("bad unicode escape");
                return out;
              }
              ++i_;
            }
            out += '?';
            break;
          default: out += esc; break;
        }
      } else {
        out += c;
      }
    }
    if (!consume('"')) fail("unterminated string");
    return out;
  }

  double number() {
    skip_ws();
    const std::size_t start = i_;
    if (i_ < s_.size() && (s_[i_] == '-' || s_[i_] == '+')) ++i_;
    bool digits = false;
    auto eat_digits = [&] {
      while (i_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[i_]))) {
        ++i_;
        digits = true;
      }
    };
    eat_digits();
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      eat_digits();
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '-' || s_[i_] == '+')) ++i_;
      eat_digits();
    }
    if (!digits) {
      fail("expected number");
      return 0;
    }
    return std::stod(s_.substr(start, i_ - start));
  }

  JsonValue array() {
    consume('[');
    JsonArray out;
    if (consume(']')) return JsonValue{out};
    for (;;) {
      out.push_back(value());
      if (consume(']')) break;
      if (!consume(',')) {
        fail("expected ',' or ']'");
        break;
      }
    }
    return JsonValue{std::move(out)};
  }

  JsonValue object() {
    consume('{');
    JsonObject out;
    if (consume('}')) return JsonValue{out};
    for (;;) {
      std::string key = string();
      if (!consume(':')) {
        fail("expected ':'");
        break;
      }
      out.emplace(std::move(key), value());
      if (consume('}')) break;
      if (!consume(',')) {
        fail("expected ',' or '}'");
        break;
      }
    }
    return JsonValue{std::move(out)};
  }

  const std::string& s_;
  std::size_t i_ = 0;
  std::string error_;
};

core::Config config_with(int gpus, core::SyncMode mode) {
  core::Config cfg = test::config_for(gpus);
  cfg.sync_mode = mode;
  return cfg;
}

void expect_stats_identical(const vgpu::RunStats& a, const vgpu::RunStats& b,
                            const std::string& what) {
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.total_edges, b.total_edges) << what;
  EXPECT_EQ(a.total_vertices, b.total_vertices) << what;
  EXPECT_EQ(a.total_comm_items, b.total_comm_items) << what;
  EXPECT_EQ(a.total_comm_bytes, b.total_comm_bytes) << what;
  EXPECT_EQ(a.total_launches, b.total_launches) << what;
  // Modeled times: bit-identical, not approximately equal — the tracer
  // must not perturb the arithmetic.
  EXPECT_EQ(a.modeled_compute_s, b.modeled_compute_s) << what;
  EXPECT_EQ(a.modeled_comm_s, b.modeled_comm_s) << what;
  EXPECT_EQ(a.modeled_overhead_s, b.modeled_overhead_s) << what;
  EXPECT_EQ(a.modeled_overlap_hidden_s, b.modeled_overlap_hidden_s) << what;
  EXPECT_EQ(a.modeled_total_s(), b.modeled_total_s()) << what;
}

// ---------------------------------------------------------------------
// Differential suite: tracing on vs off is bit-identical.
// ---------------------------------------------------------------------
TEST(Trace, DifferentialBfs) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  for (const auto mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    for (const int gpus : {1, 2, 4, 8}) {
      const auto cfg = config_with(gpus, mode);
      auto plain_machine = test::test_machine(gpus);
      const auto plain = prim::run_bfs(g, src, plain_machine, cfg);

      auto traced_machine = test::test_machine(gpus);
      vgpu::Tracer tracer;
      traced_machine.set_tracer(&tracer);
      const auto traced = prim::run_bfs(g, src, traced_machine, cfg);

      const std::string what =
          "bfs gpus=" + std::to_string(gpus) +
          " pipeline=" +
          std::to_string(mode == core::SyncMode::kEventPipeline);
      EXPECT_EQ(plain.labels, traced.labels) << what;
      EXPECT_EQ(plain.preds, traced.preds) << what;
      expect_stats_identical(plain.stats, traced.stats, what);
      if (gpus > 1) {
        EXPECT_GT(tracer.span_count(), 0u) << what;
      }
      EXPECT_EQ(tracer.supersteps().size(), traced.stats.iterations) << what;
    }
  }
}

TEST(Trace, DifferentialSssp) {
  const auto g = test::small_weighted_rmat();
  const VertexT src = test::first_connected_vertex(g);
  for (const auto mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    for (const int gpus : {1, 2, 4, 8}) {
      const auto cfg = config_with(gpus, mode);
      auto plain_machine = test::test_machine(gpus);
      const auto plain = prim::run_sssp(g, src, plain_machine, cfg);

      auto traced_machine = test::test_machine(gpus);
      vgpu::Tracer tracer;
      traced_machine.set_tracer(&tracer);
      const auto traced = prim::run_sssp(g, src, traced_machine, cfg);

      const std::string what =
          "sssp gpus=" + std::to_string(gpus) +
          " pipeline=" +
          std::to_string(mode == core::SyncMode::kEventPipeline);
      EXPECT_EQ(plain.dist, traced.dist) << what;
      expect_stats_identical(plain.stats, traced.stats, what);
    }
  }
}

TEST(Trace, DifferentialPagerank) {
  const auto g = test::small_rmat();
  for (const auto mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    for (const int gpus : {1, 2, 4, 8}) {
      const auto cfg = config_with(gpus, mode);
      prim::PagerankOptions options;
      options.max_iterations = 10;
      auto plain_machine = test::test_machine(gpus);
      const auto plain = prim::run_pagerank(g, plain_machine, cfg, options);

      auto traced_machine = test::test_machine(gpus);
      vgpu::Tracer tracer;
      traced_machine.set_tracer(&tracer);
      const auto traced =
          prim::run_pagerank(g, traced_machine, cfg, options);

      const std::string what =
          "pr gpus=" + std::to_string(gpus) +
          " pipeline=" +
          std::to_string(mode == core::SyncMode::kEventPipeline);
      EXPECT_EQ(plain.rank, traced.rank) << what;
      expect_stats_identical(plain.stats, traced.stats, what);
    }
  }
}

// ---------------------------------------------------------------------
// Reconciliation: span sums match the enactor's own accounting.
// ---------------------------------------------------------------------
class TracedBfs {
 public:
  TracedBfs(const graph::Graph& g, int gpus, core::SyncMode mode)
      : machine_(test::test_machine(gpus)) {
    machine_.set_tracer(&tracer);
    problem.init(g, machine_, config_with(gpus, mode));
    enactor = std::make_unique<prim::BfsEnactor>(problem);
    enactor->reset(test::first_connected_vertex(g));
    stats = enactor->enact();
  }

 private:
  // Declared first so the machine outlives the problem/enactor that
  // reference its devices.
  vgpu::Machine machine_;

 public:
  vgpu::Tracer tracer;
  prim::BfsProblem problem;
  std::unique_ptr<prim::BfsEnactor> enactor;
  vgpu::RunStats stats;
};

TEST(Trace, SpanSumsReconcileWithIterationRecords) {
  const auto g = test::small_rmat();
  for (const auto mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    const int gpus = 4;
    TracedBfs run(g, gpus, mode);
    const auto& records = run.enactor->iteration_records();
    const auto& steps = run.tracer.supersteps();
    ASSERT_EQ(steps.size(), records.size());

    // Per-(superstep, gpu, track) busy sums from the raw spans.
    std::vector<std::vector<double>> compute(steps.size()),
        comm(steps.size());
    for (auto& v : compute) v.assign(gpus, 0.0);
    for (auto& v : comm) v.assign(gpus, 0.0);
    for (const auto& span : run.tracer.sorted_spans()) {
      ASSERT_LT(span.superstep, steps.size());
      ASSERT_GE(span.end_s, span.start_s);
      auto& lane = span.track == 0 ? compute : comm;
      lane[span.superstep][span.gpu] += span.end_s - span.start_s;
    }

    for (std::size_t k = 0; k < steps.size(); ++k) {
      double max_compute = 0, max_comm = 0;
      for (int gpu = 0; gpu < gpus; ++gpu) {
        // The superstep's per-GPU counters (harvested by the enactor)
        // must equal the sum of that GPU's spans.
        EXPECT_NEAR(compute[k][gpu], steps[k].gpu_compute_s[gpu], 1e-12);
        EXPECT_NEAR(comm[k][gpu], steps[k].gpu_comm_s[gpu], 1e-12);
        max_compute = std::max(max_compute, compute[k][gpu]);
        max_comm = std::max(max_comm, comm[k][gpu]);
      }
      // ... and the max over GPUs is what the IterationRecord charged.
      EXPECT_NEAR(max_compute, records[k].compute_s, 1e-12);
      EXPECT_NEAR(max_comm, records[k].comm_s, 1e-12);
      EXPECT_DOUBLE_EQ(steps[k].overhead_s, records[k].overhead_s);
      EXPECT_DOUBLE_EQ(steps[k].hidden_s, records[k].comm_hidden_s);
    }

    // Superstep durations tile the modeled total exactly.
    const auto offsets = run.tracer.superstep_offsets_s();
    ASSERT_EQ(offsets.size(), steps.size() + 1);
    EXPECT_NEAR(offsets.back(), run.stats.modeled_total_s(), 1e-9);
    for (std::size_t k = 0; k + 1 < offsets.size(); ++k) {
      EXPECT_LE(offsets[k], offsets[k + 1]);
    }
  }
}

TEST(Trace, AttributionSplitSumsToModeledTotal) {
  const auto g = test::small_rmat();
  for (const auto mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    TracedBfs run(g, 4, mode);
    const auto attribution = run.tracer.attribution(/*top_k=*/2);
    ASSERT_EQ(attribution.size(), run.stats.iterations);
    double total = 0;
    for (const auto& a : attribution) {
      // compute + exposed-comm + sync tile the superstep exactly.
      EXPECT_NEAR(a.compute_s + a.exposed_comm_s + a.sync_s, a.total_s,
                  1e-12);
      EXPECT_GE(a.compute_s, 0.0);
      EXPECT_GE(a.exposed_comm_s, 0.0);
      EXPECT_GE(a.sync_s, 0.0);
      EXPECT_GE(a.critical_gpu, 0);
      EXPECT_LT(a.critical_gpu, 4);
      EXPECT_LE(a.top.size(), 2u);
      total += a.total_s;
    }
    EXPECT_NEAR(total, run.stats.modeled_total_s(), 1e-9);
  }
}

// ---------------------------------------------------------------------
// Chrome-trace export: valid JSON, balanced events, monotone per-track
// timestamps.
// ---------------------------------------------------------------------
TEST(Trace, ChromeTraceJsonIsValidAndMonotone) {
  const auto g = test::small_rmat();
  TracedBfs run(g, 4, core::SyncMode::kEventPipeline);

  const std::string json = run.tracer.chrome_trace_json();
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.has("traceEvents"));
  const auto& events = root.at("traceEvents").array();
  ASSERT_FALSE(events.empty());

  std::size_t duration_events = 0;
  std::map<std::pair<double, double>, double> last_ts;  // (pid,tid) -> ts
  double span_total_us = 0;
  for (const auto& ev : events) {
    ASSERT_TRUE(ev.is_object());
    ASSERT_TRUE(ev.has("ph"));
    const std::string ph = ev.at("ph").str();
    if (ph == "M") continue;  // metadata (process/thread names)
    ASSERT_EQ(ph, "X");  // every span is a complete duration event
    ++duration_events;
    const double pid = ev.at("pid").number();
    const double tid = ev.at("tid").number();
    const double ts = ev.at("ts").number();
    const double dur = ev.at("dur").number();
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(dur, 0.0);
    const auto key = std::make_pair(pid, tid);
    const auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "timestamps must be monotone per track";
    }
    last_ts[key] = ts;
    // Sum only device spans (the synthetic host pid carries the
    // barrier overhead, accounted separately below).
    if (ev.at("cat").str() != "sync") span_total_us += dur;
  }
  EXPECT_EQ(duration_events,
            run.tracer.span_count() + run.stats.iterations /* barriers */);

  // Busy time reconciles with RunStats: total span time equals the
  // per-GPU stream busy sums the run recorded.
  double expected_us = 0;
  for (const auto& step : run.tracer.supersteps()) {
    for (const double c : step.gpu_compute_s) expected_us += c * 1e6;
    for (const double c : step.gpu_comm_s) expected_us += c * 1e6;
  }
  // %.9g serialization: allow a rounding budget proportional to the
  // number of summed spans.
  EXPECT_NEAR(span_total_us, expected_us,
              1e-3 + 1e-6 * static_cast<double>(duration_events));
  EXPECT_EQ(run.tracer.dropped_spans(), 0u);
}

TEST(Trace, WriteChromeTraceRoundTrips) {
  const auto g = test::small_rmat();
  TracedBfs run(g, 2, core::SyncMode::kBspBarrier);
  const std::string path = ::testing::TempDir() + "mgg_trace_test.json";
  run.tracer.write_chrome_trace(path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  JsonParser parser(text);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  EXPECT_TRUE(root.has("traceEvents"));
  EXPECT_TRUE(root.has("otherData"));
}

TEST(Trace, StatsJsonCarriesBottleneckReport) {
  const auto g = test::small_rmat();
  TracedBfs run(g, 4, core::SyncMode::kEventPipeline);
  const std::string json =
      vgpu::run_stats_to_json(run.stats, {}, &run.tracer);
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  ASSERT_TRUE(root.has("bottlenecks"));
  const auto& bottlenecks = root.at("bottlenecks").array();
  ASSERT_EQ(bottlenecks.size(), run.stats.iterations);
  double total = 0;
  for (const auto& b : bottlenecks) {
    ASSERT_TRUE(b.has("critical_gpu"));
    ASSERT_TRUE(b.has("top_spans"));
    total += b.at("total_s").number();
  }
  EXPECT_NEAR(total, run.stats.modeled_total_s(), 1e-9);
}

// ---------------------------------------------------------------------
// Bounded buffers: a full thread buffer drops (and counts) instead of
// growing or corrupting.
// ---------------------------------------------------------------------
TEST(Trace, FullBufferDropsAndCounts) {
  // The constructor clamps the per-thread capacity up to its 64-span
  // minimum, so overflow it deterministically from one thread.
  vgpu::Tracer tracer(/*spans_per_thread=*/1);
  auto machine = test::test_machine(1);
  machine.set_tracer(&tracer);
  auto& device = machine.device(0);
  for (int i = 0; i < 200; ++i) device.add_kernel_cost(10, 1);
  EXPECT_EQ(tracer.span_count(), 64u);
  EXPECT_EQ(tracer.dropped_spans(), 200u - 64u);
  // The trace stays well-formed (drop count surfaces in otherData) and
  // the counters are untouched by the drops.
  const std::string json = tracer.chrome_trace_json();
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  EXPECT_EQ(root.at("otherData").at("dropped_spans").number(), 136.0);
  const auto counters = device.harvest_iteration();
  EXPECT_EQ(counters.edges, 2000u);
}

// No memory-accounting underflows in a normal traced run (the
// deallocate/uncharge counters from the ISSUE 4 bugfix sweep).
TEST(Trace, NoUnderflowsInNormalRuns) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  vgpu::Tracer tracer;
  auto machine = test::test_machine(4);
  machine.set_tracer(&tracer);
  prim::run_bfs(g, src, machine,
                config_with(4, core::SyncMode::kEventPipeline));
  for (int gpu = 0; gpu < machine.num_devices(); ++gpu) {
    EXPECT_EQ(machine.device(gpu).memory().underflow_count(), 0u);
  }
}

// ---------------------------------------------------------------------
// Host worker pool (docs/architecture.md §12): pool threads must not
// perturb tracing. Every cost charge is issued from the enactor's
// control flow — never from inside a pool chunk body — so all spans
// land on their owning vGPU's (gpu, track) lane, every lane stays
// monotone, and the exported trace is byte-identical to the 1-thread
// run.
// ---------------------------------------------------------------------
TEST(Trace, PoolThreadsKeepSpanAttribution) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);

  std::vector<vgpu::TraceSpan> ref;
  for (const int threads : {1, 4}) {
    core::Config cfg = config_with(4, core::SyncMode::kEventPipeline);
    cfg.host_threads = threads;
    vgpu::Tracer tracer;
    auto machine = test::test_machine(4);
    machine.set_tracer(&tracer);
    prim::run_bfs(g, src, machine, cfg);

    const auto spans = tracer.sorted_spans();
    // Start times are superstep-relative, so a lane is monotone in the
    // (superstep, start) pair.
    std::map<std::pair<int, int>, std::pair<std::uint64_t, double>> last;
    for (const auto& span : spans) {
      EXPECT_GE(span.gpu, 0);
      EXPECT_LT(span.gpu, 4);
      auto& prev = last[{span.gpu, span.track}];
      EXPECT_GE(std::make_pair(span.superstep, span.start_s), prev)
          << "track must stay monotone";
      prev = {span.superstep, span.start_s};
      EXPECT_GE(span.end_s, span.start_s);
    }
    EXPECT_EQ(tracer.dropped_spans(), 0u);

    if (threads == 1) {
      ref = spans;
      continue;
    }
    // Identical spans at 4 threads — every modeled field; only wall_s
    // (the real-time wait diagnostic) may legitimately differ. kWait
    // spans are zero-width and tie on the sort key, so their relative
    // order (which handshake completed first) is wall-timing-dependent
    // even without the pool: compare them as a multiset instead.
    ASSERT_EQ(spans.size(), ref.size());
    using WaitKey = std::tuple<std::uint64_t, int, int, int>;
    std::multiset<WaitKey> waits, ref_waits;
    std::size_t j = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].category == vgpu::TraceCategory::kWait) {
        waits.emplace(spans[i].superstep, spans[i].gpu, spans[i].track,
                      spans[i].peer);
      }
      if (ref[i].category == vgpu::TraceCategory::kWait) {
        ref_waits.emplace(ref[i].superstep, ref[i].gpu, ref[i].track,
                          ref[i].peer);
      }
    }
    EXPECT_EQ(waits, ref_waits);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].category == vgpu::TraceCategory::kWait) continue;
      // Advance the reference cursor past its own wait spans.
      while (j < ref.size() &&
             ref[j].category == vgpu::TraceCategory::kWait) {
        ++j;
      }
      ASSERT_LT(j, ref.size());
      EXPECT_STREQ(spans[i].name, ref[j].name) << i;
      EXPECT_EQ(spans[i].category, ref[j].category) << i;
      EXPECT_EQ(spans[i].gpu, ref[j].gpu) << i;
      EXPECT_EQ(spans[i].track, ref[j].track) << i;
      EXPECT_EQ(spans[i].peer, ref[j].peer) << i;
      EXPECT_EQ(spans[i].superstep, ref[j].superstep) << i;
      EXPECT_EQ(spans[i].start_s, ref[j].start_s) << i;
      EXPECT_EQ(spans[i].end_s, ref[j].end_s) << i;
      EXPECT_EQ(spans[i].edges, ref[j].edges) << i;
      EXPECT_EQ(spans[i].vertices, ref[j].vertices) << i;
      ++j;
    }
  }
}

// clear() empties the tracer but keeps it usable.
TEST(Trace, ClearAllowsReuse) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  vgpu::Tracer tracer;
  auto machine = test::test_machine(2);
  machine.set_tracer(&tracer);
  const auto cfg = config_with(2, core::SyncMode::kBspBarrier);
  prim::run_bfs(g, src, machine, cfg);
  ASSERT_GT(tracer.span_count(), 0u);
  tracer.clear();
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_TRUE(tracer.supersteps().empty());
  const auto again = prim::run_bfs(g, src, machine, cfg);
  EXPECT_EQ(tracer.supersteps().size(), again.stats.iterations);
}

// The serve-mode batch tag (Tracer::set_batch) is observation-only:
// a tagged, traced run is bit-identical to an untraced one, the tag
// lands on every span and superstep, and it reaches the Chrome export
// args so Perfetto can filter per query batch.
TEST(Trace, BatchTagIsObservationOnly) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  const auto cfg = config_with(4, core::SyncMode::kBspBarrier);
  auto plain_machine = test::test_machine(4);
  const auto plain = prim::run_bfs(g, src, plain_machine, cfg);

  auto traced_machine = test::test_machine(4);
  vgpu::Tracer tracer;
  traced_machine.set_tracer(&tracer);
  tracer.set_batch(7);
  const auto traced = prim::run_bfs(g, src, traced_machine, cfg);

  EXPECT_EQ(plain.labels, traced.labels) << "batch tag perturbed results";
  expect_stats_identical(plain.stats, traced.stats, "batch tag");

  const auto spans = tracer.sorted_spans();
  ASSERT_GT(spans.size(), 0u);
  for (const auto& span : spans) EXPECT_EQ(span.batch, 7u);
  for (const auto& step : tracer.supersteps()) EXPECT_EQ(step.batch, 7u);
  EXPECT_NE(tracer.chrome_trace_json().find("\"batch\":7"),
            std::string::npos);

  // clear() resets the tag: a fresh run records untagged spans, and
  // untagged spans omit the args key entirely.
  tracer.clear();
  EXPECT_EQ(tracer.batch(), 0u);
  prim::run_bfs(g, src, traced_machine, cfg);
  for (const auto& span : tracer.sorted_spans()) {
    EXPECT_EQ(span.batch, 0u);
  }
  EXPECT_EQ(tracer.chrome_trace_json().find("\"batch\""),
            std::string::npos);
}

}  // namespace
}  // namespace mgg
