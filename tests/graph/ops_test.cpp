#include "graph/ops.hpp"

#include <gtest/gtest.h>

#include "support/dense_oracle.hpp"
#include "util/rng.hpp"

namespace cfgx {
namespace {

Acfg triangle_graph(std::size_t feature_count = kAcfgFeatureCount) {
  // 0 -> 1 (flow), 1 -> 2 (call), 2 -> 0 (flow)
  Acfg graph(3, feature_count);
  graph.add_edge(0, 1, EdgeKind::Flow);
  graph.add_edge(1, 2, EdgeKind::Call);
  graph.add_edge(2, 0, EdgeKind::Flow);
  return graph;
}

Matrix triangle_adjacency() { return oracle::dense_adjacency(triangle_graph()); }

TEST(NormalizedAdjacencyTest, IsSymmetric) {
  const Matrix a_hat = oracle::normalized_adjacency(triangle_adjacency());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(a_hat(i, j), a_hat(j, i), 1e-12);
    }
  }
}

TEST(NormalizedAdjacencyTest, ActiveNodesHaveSelfLoops) {
  const Matrix a_hat = oracle::normalized_adjacency(triangle_adjacency());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_GT(a_hat(i, i), 0.0);
}

TEST(NormalizedAdjacencyTest, MaskedNodeRowIsZero) {
  Matrix a = triangle_adjacency();
  Matrix x(3, 2, 1.0);
  oracle::mask_node(a, x, 1);
  const Matrix a_hat = oracle::normalized_adjacency(a);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(a_hat(1, j), 0.0);
    EXPECT_DOUBLE_EQ(a_hat(j, 1), 0.0);
  }
  // Masked node gets no self-loop either (pruned == padded).
  EXPECT_DOUBLE_EQ(a_hat(1, 1), 0.0);
}

TEST(NormalizedAdjacencyTest, SingleActiveEdgePairNormalizesToDoublyStochasticish) {
  // Two nodes with one edge: degrees are equal, rows sum to 1.
  Matrix a(2, 2);
  a(0, 1) = 1.0;
  const Matrix a_hat = oracle::normalized_adjacency(a);
  EXPECT_NEAR(a_hat(0, 0) + a_hat(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(a_hat(1, 0) + a_hat(1, 1), 1.0, 1e-12);
}

TEST(NormalizedAdjacencyTest, CallWeightInfluencesNormalization) {
  Matrix flow(2, 2), call(2, 2);
  flow(0, 1) = 1.0;
  call(0, 1) = 2.0;
  const Matrix h_flow = oracle::normalized_adjacency(flow);
  const Matrix h_call = oracle::normalized_adjacency(call);
  // Heavier edge -> relatively smaller self-loop share.
  EXPECT_LT(h_call(0, 0), h_flow(0, 0));
  EXPECT_GT(h_call(0, 1), 0.0);
}

TEST(NormalizedAdjacencyTest, ExportsInverseSqrtDegrees) {
  std::vector<double> inv_sqrt;
  const Matrix a_hat = oracle::normalized_adjacency(triangle_adjacency(), inv_sqrt);
  ASSERT_EQ(inv_sqrt.size(), 3u);
  for (double v : inv_sqrt) EXPECT_GT(v, 0.0);
  // Reconstruct one entry: a_hat(0,1) = c0*c1*(S+I)(0,1).
  const Matrix a = triangle_adjacency();
  const double s01 = a(0, 1) + a(1, 0);
  EXPECT_NEAR(a_hat(0, 1), inv_sqrt[0] * inv_sqrt[1] * s01, 1e-12);
}

TEST(NormalizedAdjacencyTest, NonSquareThrows) {
  EXPECT_THROW(oracle::normalized_adjacency(Matrix(2, 3)), std::invalid_argument);
}

TEST(NormalizedAdjacencyCsrTest, MatchesDenseBitForBit) {
  Rng rng(9);
  Matrix a(24, 24);
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = 0; j < 24; ++j) {
      if (i != j && rng.bernoulli(0.08)) a(i, j) = 1.0;
    }
  }
  std::vector<double> inv_dense, inv_csr;
  const Matrix dense = oracle::normalized_adjacency(a, inv_dense);
  const CsrMatrix csr = oracle::normalized_adjacency_csr(a, inv_csr);
  EXPECT_EQ(csr.to_dense(), dense);  // identical values, zeros dropped
  EXPECT_EQ(inv_csr, inv_dense);
  EXPECT_LT(csr.density(), 0.5);
}

TEST(NormalizedAdjacencyCsrTest, MaskedNodeHasEmptyRow) {
  Matrix a = triangle_adjacency();
  Matrix x(3, 4, 1.0);
  oracle::mask_node(a, x, 1);
  const CsrMatrix csr = oracle::normalized_adjacency_csr(a, &x);
  EXPECT_EQ(csr.row_ptr()[2] - csr.row_ptr()[1], 0u);  // node 1 stores nothing
}

TEST(MaskNodeTest, ZeroesRowColumnAndFeatures) {
  Matrix a = triangle_adjacency();
  Matrix x(3, 4, 2.0);
  oracle::mask_node(a, x, 2);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(a(2, j), 0.0);
    EXPECT_DOUBLE_EQ(a(j, 2), 0.0);
  }
  for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(x(2, c), 0.0);
  // Other entries untouched.
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(x(0, 0), 2.0);
}

TEST(MaskNodeTest, OutOfRangeThrows) {
  Matrix a(3, 3);
  Matrix x(3, 2);
  EXPECT_THROW(oracle::mask_node(a, x, 3), std::out_of_range);
  Matrix bad_x(2, 2);
  EXPECT_THROW(oracle::mask_node(a, bad_x, 0), std::invalid_argument);
}

TEST(NodeIsMaskedTest, DetectsMaskedNodes) {
  Matrix a = triangle_adjacency();
  Matrix x(3, 1);
  EXPECT_FALSE(oracle::node_is_masked(a, 0));
  oracle::mask_node(a, x, 0);
  EXPECT_TRUE(oracle::node_is_masked(a, 0));
}

// keep_only's masking contract, served in production by masked_subgraph.
TEST(KeepOnlyTest, PreservesShapeMasksComplement) {
  Acfg graph = triangle_graph(2);
  graph.features().fill(1.0);
  const Acfg masked = masked_subgraph(graph, {0, 1});
  const Matrix adjacency = oracle::dense_adjacency(masked);
  EXPECT_EQ(masked.num_nodes(), 3u);
  EXPECT_TRUE(oracle::node_is_masked(adjacency, 2));
  EXPECT_DOUBLE_EQ(adjacency(0, 1), 1.0);  // kept edge
  EXPECT_DOUBLE_EQ(adjacency(1, 2), 0.0);  // edge into masked node
  EXPECT_DOUBLE_EQ(masked.features()(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(masked.features()(0, 0), 1.0);
}

TEST(KeepOnlyTest, KeepAllIsIdentity) {
  Acfg graph = triangle_graph(2);
  graph.features().fill(1.0);
  const Acfg masked = masked_subgraph(graph, {0, 1, 2});
  EXPECT_EQ(masked.edges(), graph.edges());
  EXPECT_EQ(masked.features(), graph.features());
}

TEST(KeepOnlyTest, OutOfRangeThrows) {
  const Acfg graph(2, 1);
  EXPECT_THROW(masked_subgraph(graph, {5}), std::out_of_range);
}

TEST(TopKNodesTest, OrdersByScoreDescending) {
  const auto top = top_k_nodes({0.1, 0.9, 0.5}, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 0u);
}

TEST(TopKNodesTest, TiesBrokenByLowerIndex) {
  const auto top = top_k_nodes({0.5, 0.5, 0.5}, 2);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
}

TEST(TopKNodesTest, KTooLargeThrows) {
  EXPECT_THROW(top_k_nodes({0.1}, 2), std::invalid_argument);
}

TEST(NodesForFractionTest, CeilAndClamp) {
  EXPECT_EQ(nodes_for_fraction(10, 0.1), 1u);
  EXPECT_EQ(nodes_for_fraction(10, 0.25), 3u);   // ceil(2.5)
  EXPECT_EQ(nodes_for_fraction(10, 1.0), 10u);
  EXPECT_EQ(nodes_for_fraction(3, 0.01), 1u);    // at least one node
  EXPECT_EQ(nodes_for_fraction(0, 0.5), 0u);
}

TEST(NodesForFractionTest, BadFractionThrows) {
  EXPECT_THROW(nodes_for_fraction(10, -0.1), std::invalid_argument);
  EXPECT_THROW(nodes_for_fraction(10, 1.1), std::invalid_argument);
}

}  // namespace
}  // namespace cfgx
