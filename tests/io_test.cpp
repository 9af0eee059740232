// Unit tests for MatrixMarket and edge-list I/O.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace mgg {
namespace {

using graph::GraphCoo;

TEST(MatrixMarket, ParsesGeneralPattern) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% a comment\n"
      "4 4 3\n"
      "1 2\n"
      "2 3\n"
      "4 1\n");
  const auto coo = graph::read_matrix_market(in);
  EXPECT_EQ(coo.num_vertices, 4u);
  ASSERT_EQ(coo.num_edges(), 3u);
  EXPECT_EQ(coo.src[0], 0u);  // converted to 0-based
  EXPECT_EQ(coo.dst[0], 1u);
  EXPECT_FALSE(coo.has_values());
}

TEST(MatrixMarket, ExpandsSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 9.0\n");
  const auto coo = graph::read_matrix_market(in);
  // Off-diagonal entry mirrored; diagonal not duplicated.
  EXPECT_EQ(coo.num_edges(), 3u);
  EXPECT_FLOAT_EQ(coo.values[0], 5.0f);
  EXPECT_FLOAT_EQ(coo.values[1], 5.0f);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::istringstream no_banner("1 2 3\n");
  EXPECT_THROW(graph::read_matrix_market(no_banner), Error);
  std::istringstream bad_index(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "5 1\n");
  EXPECT_THROW(graph::read_matrix_market(bad_index), Error);
  std::istringstream truncated(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 3\n"
      "1 2\n");
  EXPECT_THROW(graph::read_matrix_market(truncated), Error);
}

// Dimensions, IDs and entry counts must fit the 32-bit VertexT/SizeT
// types: narrowing them silently would alias vertices.
TEST(MatrixMarket, RejectsDimensionsBeyondVertexT) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "4294967301 4294967301 1\n"
      "4294967301 1\n");
  try {
    graph::read_matrix_market(in);
    FAIL() << "a 2^32 + 5 row count was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kIoError) << e.what();
  }
}

TEST(MatrixMarket, RejectsEntryCountBeyondSizeT) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 999999999999999999\n"
      "1 2\n");
  try {
    graph::read_matrix_market(in);
    FAIL() << "an entry count beyond SizeT was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kIoError) << e.what();
  }
  // An in-range but overstated count reserves only a bounded block up
  // front and ends in the truncated-entry-list error.
  std::istringstream overstated(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 4294967295\n"
      "1 2\n");
  try {
    graph::read_matrix_market(overstated);
    FAIL() << "a truncated entry list was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kIoError) << e.what();
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(MatrixMarket, RoundTrip) {
  GraphCoo coo;
  coo.num_vertices = 5;
  coo.add_edge(0, 1, 2.5f);
  coo.add_edge(3, 4, 7.0f);
  std::ostringstream out;
  graph::write_matrix_market(out, coo);
  std::istringstream in(out.str());
  const auto parsed = graph::read_matrix_market(in);
  EXPECT_EQ(parsed.num_vertices, 5u);
  ASSERT_EQ(parsed.num_edges(), 2u);
  EXPECT_EQ(parsed.src[1], 3u);
  EXPECT_FLOAT_EQ(parsed.values[1], 7.0f);
}

TEST(EdgeList, ParsesCommentsAndWeights) {
  std::istringstream in(
      "# comment\n"
      "0 1 3.5\n"
      "% other comment style\n"
      "2 0 1.0\n");
  const auto coo = graph::read_edge_list(in);
  EXPECT_EQ(coo.num_vertices, 3u);
  ASSERT_EQ(coo.num_edges(), 2u);
  EXPECT_TRUE(coo.has_values());
  EXPECT_FLOAT_EQ(coo.values[0], 3.5f);
}

TEST(EdgeList, RejectsMixedWeighting) {
  std::istringstream in(
      "0 1 3.5\n"
      "2 0\n");
  EXPECT_THROW(graph::read_edge_list(in), Error);
}

TEST(EdgeList, RejectsIdsBeyondVertexT) {
  std::istringstream in("0 4294967301\n");
  try {
    graph::read_edge_list(in);
    FAIL() << "vertex 2^32 + 5 was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kIoError) << e.what();
    EXPECT_NE(std::string(e.what()).find("0 4294967301"), std::string::npos)
        << e.what();
  }
}

TEST(EdgeList, RoundTrip) {
  GraphCoo coo;
  coo.num_vertices = 4;
  coo.add_edge(0, 3);
  coo.add_edge(2, 1);
  std::ostringstream out;
  graph::write_edge_list(out, coo);
  std::istringstream in(out.str());
  const auto parsed = graph::read_edge_list(in);
  EXPECT_EQ(parsed.num_vertices, 4u);
  EXPECT_EQ(parsed.src, coo.src);
  EXPECT_EQ(parsed.dst, coo.dst);
}

TEST(MatrixMarket, RandomRoundTripProperty) {
  // Property: any generated COO survives an mtx write/read cycle
  // bit-exactly (after the same deterministic ordering).
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto coo = graph::make_rmat(6, 4, graph::RmatParams::gtgraph(), seed);
    graph::assign_random_weights(coo, 1, 9, seed);
    coo.to_directed_clean();
    std::ostringstream out;
    graph::write_matrix_market(out, coo);
    std::istringstream in(out.str());
    auto parsed = graph::read_matrix_market(in);
    parsed.to_directed_clean();  // same canonical ordering
    EXPECT_EQ(parsed.src, coo.src) << "seed " << seed;
    EXPECT_EQ(parsed.dst, coo.dst) << "seed " << seed;
    EXPECT_EQ(parsed.values, coo.values) << "seed " << seed;
  }
}

TEST(EdgeList, FileRoundTrip) {
  GraphCoo coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 1, 4.0f);
  const std::string path = "/tmp/mgg_io_test.el";
  graph::save_edge_list(path, coo);
  const auto loaded = graph::load_edge_list(path);
  EXPECT_EQ(loaded.num_edges(), 1u);
  EXPECT_FLOAT_EQ(loaded.values[0], 4.0f);
  EXPECT_THROW(graph::load_edge_list("/nonexistent/file"), Error);
}

}  // namespace
}  // namespace mgg
