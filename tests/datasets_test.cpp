// Tests for the dataset registry: every analog generates, preserves
// its family's structural signature, and is deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/properties.hpp"

namespace mgg {
namespace {

TEST(Datasets, RegistryCoversTableII) {
  const auto suite = graph::table2_suite();
  EXPECT_EQ(suite.size(), 16u);  // 5 soc + 5 web + 6 rmat
  for (const char* name :
       {"soc-orkut", "uk-2002", "rmat_n22_128", "hollywood-2009"}) {
    EXPECT_NO_THROW(graph::find_dataset(name));
  }
}

TEST(Datasets, UnknownNameThrows) {
  EXPECT_THROW(graph::find_dataset("does-not-exist"), Error);
  EXPECT_THROW(graph::build_dataset("does-not-exist"), Error);
}

TEST(Datasets, DeterministicPerSeed) {
  const auto a = graph::build_dataset("hollywood-2009", 1);
  const auto b = graph::build_dataset("hollywood-2009", 1);
  EXPECT_TRUE(a.graph == b.graph);
  const auto c = graph::build_dataset("hollywood-2009", 2);
  EXPECT_FALSE(a.graph == c.graph);
}

TEST(Datasets, AllBuildAndAreWeighted) {
  for (const auto& spec : graph::dataset_registry()) {
    // Keep test time bounded: skip the largest analogs here (they are
    // exercised by the benches).
    if (spec.paper_edges > 2e9) continue;
    const auto ds = graph::build_dataset(spec.name);
    EXPECT_GT(ds.graph.num_vertices, 0u) << spec.name;
    EXPECT_GT(ds.graph.num_edges, 0u) << spec.name;
    EXPECT_TRUE(ds.graph.has_values()) << spec.name;
    if (spec.undirected) {
      EXPECT_TRUE(graph::is_symmetric(ds.graph)) << spec.name;
    }
  }
}

// FNV-1a-64 over the bytes of row_offsets, then col_indices, then
// edge_values.
std::uint64_t fingerprint(const graph::Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const auto& array) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(array.data());
    for (std::size_t i = 0; i < array.size() * sizeof(array[0]); ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  mix(g.row_offsets);
  mix(g.col_indices);
  mix(g.edge_values);
  return h;
}

TEST(Datasets, FingerprintsMatchParent) {
  // Graph construction may get faster but must not move a byte: every
  // result, W/H count and modeled time downstream depends on these
  // arrays. One graph per generator family, both R-MAT parameter sets,
  // and two directed builds.
  const struct {
    const char* name;
    std::uint64_t fingerprint;
  } pinned[] = {
      {"soc-orkut", 0x9a0cd463884b321cULL},
      {"rmat_n24_32", 0xd00edbb6324741beULL},
      {"rmat_n22_128", 0xb6b4055041396f35ULL},
      {"uk-2002", 0x3f7299362ce31f62ULL},
      {"road-grid", 0xf4931ba8d3e6e8d7ULL},
      {"kron_n23_16", 0xa8dfbeffcac13f6bULL},
      {"twitter-rv", 0x5da17098cd28d2cdULL},      // directed
      {"rmat_2Mv_128Me", 0xdee1e0dd2ba53099ULL},  // directed, Merrill
  };
  for (const auto& [name, want] : pinned) {
    EXPECT_EQ(fingerprint(graph::build_dataset(name).graph), want) << name;
  }
}

TEST(Datasets, FamilySignatures) {
  // soc: low diameter; web: deeper; rmat: dense and shallow.
  const auto soc = graph::build_dataset("soc-orkut");
  const auto web = graph::build_dataset("uk-2002");
  const auto rmat = graph::build_dataset("rmat_n20_512");
  const double d_soc = graph::estimate_diameter(soc.graph, 6);
  const double d_web = graph::estimate_diameter(web.graph, 6);
  EXPECT_LT(d_soc, d_web);
  EXPECT_GT(rmat.graph.average_degree(), soc.graph.average_degree());
}

TEST(Datasets, EdgeFactorTracksPaper) {
  // The analog's |E|/|V| should be within 3x of the paper's ratio —
  // that ratio drives the scalability conclusions (Fig. 6).
  for (const char* name : {"soc-orkut", "uk-2002", "rmat_n22_128",
                           "soc-LiveJournal1", "indochina-2004"}) {
    const auto ds = graph::build_dataset(name);
    const double paper_ratio =
        ds.spec.paper_edges / ds.spec.paper_vertices;
    const double analog_ratio = ds.graph.average_degree();
    EXPECT_GT(analog_ratio, paper_ratio / 3) << name;
    EXPECT_LT(analog_ratio, paper_ratio * 6) << name;
  }
}

TEST(Datasets, FamilyListing) {
  const auto soc = graph::datasets_in_family("soc");
  EXPECT_EQ(soc.size(), 5u);
  const auto all = graph::datasets_in_family();
  EXPECT_GT(all.size(), 20u);
}

}  // namespace
}  // namespace mgg
