// Unit tests for MatrixMarket and edge-list I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/random.hpp"

namespace mgg {
namespace {

using graph::GraphCoo;

/// Expect `text` to be rejected with kIoError by `read`, the message
/// naming `culprit` (the offending line).
template <typename Read>
void expect_io_error(Read read, const std::string& text,
                     const std::string& culprit) {
  std::istringstream in(text);
  try {
    read(in);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kIoError) << text << ": " << e.what();
    EXPECT_NE(std::string(e.what()).find(culprit), std::string::npos)
        << text << ": " << e.what();
  }
}

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

// Every token must convert whole: no partial numbers, no trailing
// junk, no non-finite weights, and exactly the fields the header
// declares.
TEST(MatrixMarket, RejectsMalformedTokens) {
  const auto read = [](std::istream& in) { graph::read_matrix_market(in); };
  const std::string real =
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n";
  for (const std::string entry :
       {"1 2 abc", "1 2 1e999", "1 2junk", "1 2 nan", "1 2", "1 2 3 4"}) {
    expect_io_error(read, real + entry + "\n", entry);
  }
  const std::string pattern =
      "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n";
  for (const std::string entry : {"1 2 5", "1.5 2", "-1 2"}) {
    expect_io_error(read, pattern + entry + "\n", entry);
  }
  for (const std::string size : {"3 3", "3 3 1 1", "3x 3 1", "3 3 -1"}) {
    expect_io_error(
        read,
        "%%MatrixMarket matrix coordinate pattern general\n" + size + "\n",
        size);
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

TEST(EdgeList, RejectsMalformedTokens) {
  const auto read = [](std::istream& in) { graph::read_edge_list(in); };
  for (const std::string line :
       {"1.5 2", "3 -", "2 3x", "0 1 x", "0 1 1e999", "0 1 inf", "0",
        "0 1 2 3", "-1 2", "+1 2"}) {
    expect_io_error(read, line + "\n", line);
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

// Weights that need every significant digit of ValueT come back
// bit-exactly through both writers.
TEST(MatrixMarket, WeightsRoundTripAtFullPrecision) {
  GraphCoo coo;
  coo.num_vertices = 4;
  coo.add_edge(0, 1, 1.2345678f);
  coo.add_edge(2, 3, 0.1f);
  coo.add_edge(3, 0, -3.3333333e-7f);
  std::ostringstream mtx;
  graph::write_matrix_market(mtx, coo);
  std::istringstream mtx_in(mtx.str());
  EXPECT_EQ(graph::read_matrix_market(mtx_in).values, coo.values)
      << mtx.str();
  std::ostringstream el;
  graph::write_edge_list(el, coo);
  std::istringstream el_in(el.str());
  EXPECT_EQ(graph::read_edge_list(el_in).values, coo.values) << el.str();
}

/// One seeded mutation of `text`: a byte flip, a truncation, a
/// duplicated token, or an inserted `.`/`-`/`x`/`e999`/`nan`.
std::string mutate(const std::string& text, int kind, util::Rng& rng) {
  std::string out = text;
  const std::size_t at = rng.next_below(out.size());
  switch (kind) {
    case 0:
      out[at] = static_cast<char>(
          static_cast<unsigned char>(out[at]) ^ (1 + rng.next_below(255)));
      break;
    case 1:
      out.resize(at);
      break;
    case 2: {
      // Duplicate the whitespace-delimited token around `at`.
      std::size_t b = at;
      while (b > 0 && out[b - 1] != ' ' && out[b - 1] != '\n') --b;
      std::size_t e = at;
      while (e < out.size() && out[e] != ' ' && out[e] != '\n') ++e;
      out.insert(e, " " + out.substr(b, e - b));
      break;
    }
    default: {
      static const char* const kSnippets[] = {".", "-", "x", "e999", "nan"};
      out.insert(at, kSnippets[rng.next_below(5)]);
      break;
    }
  }
  return out;
}

/// The fuzzers' contract for one input: it parses or throws a typed
/// kIoError / kUnsupported; an accepted graph has every ID below
/// num_vertices and finite weights, and survives write -> read.
/// Returns whether the input was accepted.
template <typename Read, typename Write>
bool check_mutated_input(Read read, Write write, const std::string& text,
                         std::uint64_t seed) {
  GraphCoo coo;
  try {
    std::istringstream in(text);
    coo = read(in);
  } catch (const Error& e) {
    EXPECT_TRUE(e.status() == Status::kIoError ||
                e.status() == Status::kUnsupported)
        << "seed " << seed << ": " << e.what() << "\ninput:\n" << text;
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "seed " << seed << ": untyped exception " << e.what()
                  << "\ninput:\n" << text;
    return false;
  }
  for (std::size_t e = 0; e < coo.num_edges(); ++e) {
    EXPECT_LT(coo.src[e], coo.num_vertices) << "seed " << seed << "\n" << text;
    EXPECT_LT(coo.dst[e], coo.num_vertices) << "seed " << seed << "\n" << text;
    if (coo.has_values()) {
      EXPECT_TRUE(std::isfinite(coo.values[e]))
          << "seed " << seed << "\n" << text;
    }
  }
  std::ostringstream out;
  write(out, coo);
  GraphCoo back;
  try {
    std::istringstream again(out.str());
    back = read(again);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "seed " << seed << ": rewrite rejected: " << e.what()
                  << "\ninput:\n" << text << "\nwritten:\n" << out.str();
    return true;
  }
  EXPECT_EQ(back.num_vertices, coo.num_vertices) << "seed " << seed << "\n"
                                                 << text;
  EXPECT_EQ(back.src, coo.src) << "seed " << seed << "\n" << text;
  EXPECT_EQ(back.dst, coo.dst) << "seed " << seed << "\n" << text;
  EXPECT_EQ(back.values, coo.values) << "seed " << seed << "\n" << text;
  return true;
}

TEST(EdgeList, ReadSurvivesSeededMutations) {
  const std::vector<std::string> files = {
      "# weighted\n0 1 2.5\n1 2 0.125\n2 0 -7\n3 1 1e3\n",
      "% pattern\n0 1\n1 2\n2 3\n3 0\n"};
  const auto read = [](std::istream& in) { return graph::read_edge_list(in); };
  const auto write = [](std::ostream& out, const GraphCoo& coo) {
    graph::write_edge_list(out, coo);
  };
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    util::Rng rng(seed);
    for (const std::string& file : files) {
      for (int kind = 0; kind < 4; ++kind) {
        accepted += check_mutated_input(read, write, mutate(file, kind, rng),
                                        seed);
      }
    }
  }
  // Non-vacuous: some mutants still parse, and most do not.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 8000u / 2);
}

TEST(MatrixMarket, ReadSurvivesSeededMutations) {
  const std::vector<std::string> files = {
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% weighted\n4 4 3\n2 1 2.5\n3 2 0.125\n4 4 -7\n",
      "%%MatrixMarket matrix coordinate pattern general\n"
      "4 4 4\n1 2\n2 3\n3 4\n4 1\n"};
  const auto read = [](std::istream& in) {
    return graph::read_matrix_market(in);
  };
  const auto write = [](std::ostream& out, const GraphCoo& coo) {
    graph::write_matrix_market(out, coo);
  };
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    util::Rng rng(seed);
    for (const std::string& file : files) {
      for (int kind = 0; kind < 4; ++kind) {
        accepted += check_mutated_input(read, write, mutate(file, kind, rng),
                                        seed);
      }
    }
  }
  // Non-vacuous: some mutants still parse, and most do not.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 8000u / 2);
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
