// Dense N x N reference implementations of node masking and masked
// prediction. Production code never densifies: it masks with
// masked_subgraph() and predicts/embeds straight from the edge list. The
// differential, metamorphic and property suites compare that path against
// these references, which are built only from public pieces
// (normalized_adjacency_csr, embed_into, class_logits, count_active_nodes).
#pragma once

#include <cstdint>
#include <vector>

#include "gnn/classifier.hpp"
#include "nn/matrix.hpp"

namespace cfgx::oracle {

// Zeroes row + column `node` of the adjacency and the node's feature row
// (Algorithm 2 lines 17-18, plus the feature zeroing of DESIGN decision 3).
// Throws std::out_of_range / std::invalid_argument on bad shapes.
void mask_node(Matrix& adjacency, Matrix& features, std::uint32_t node);

// True when row `node` and column `node` of `adjacency` are entirely zero.
bool node_is_masked(const Matrix& adjacency, std::uint32_t node);

// A copy of (A, X) with every node NOT in `kept` masked out. Shapes are
// preserved (masked, not compacted). Throws on an out-of-range kept id.
struct MaskedGraph {
  Matrix adjacency;
  Matrix features;
};
MaskedGraph keep_only(const Matrix& adjacency, const Matrix& features,
                      const std::vector<std::uint32_t>& kept);

// Node embeddings from a dense weighted adjacency + RAW features.
Matrix embed(const GnnClassifier& gnn, const Matrix& adjacency,
             const Matrix& raw_features);

// Prediction from a dense weighted adjacency + RAW features, pooling over
// count_active_nodes(adjacency, raw_features).
Prediction predict(const GnnClassifier& gnn, const Matrix& adjacency,
                   const Matrix& raw_features);

}  // namespace cfgx::oracle
