// Graph file I/O: MatrixMarket (.mtx) and whitespace edge lists.
//
// The paper's datasets come from the UF sparse matrix collection
// (MatrixMarket format) and the Network Data Repository (edge lists),
// so both loaders are provided for users with access to the originals;
// the bench harness itself uses the synthetic analogs from
// graph/datasets.hpp.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/coo.hpp"

namespace mgg::graph {

/// Parse a MatrixMarket coordinate-format stream. Supports `general`
/// and `symmetric` symmetry (symmetric inputs are expanded), `pattern`
/// (unweighted) and `real`/`integer` fields. 1-based indices per spec.
/// The size line is exactly `rows cols entries`, each entry exactly
/// `i j` (pattern) or `i j w`; indices are unsigned decimals, weights
/// finite numbers, and anything else throws kIoError naming the line.
GraphCoo read_matrix_market(std::istream& in);
GraphCoo load_matrix_market(const std::string& path);

/// Write COO as MatrixMarket `general` coordinate format, weights at
/// max_digits10 so they read back bit-exactly.
void write_matrix_market(std::ostream& out, const GraphCoo& coo);

/// Parse a whitespace/comment edge list: lines of exactly `u v` or
/// `u v w` (unsigned decimal IDs, finite weights; anything else throws
/// kIoError naming the line), `#` or `%` comments. Vertices are
/// 0-based; num_vertices = max id + 1.
GraphCoo read_edge_list(std::istream& in);
GraphCoo load_edge_list(const std::string& path);

/// Write `u v [w]` lines, weights at max_digits10.
void write_edge_list(std::ostream& out, const GraphCoo& coo);
void save_edge_list(const std::string& path, const GraphCoo& coo);

}  // namespace mgg::graph
