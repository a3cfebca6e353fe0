// Tests for the interpretation stage (Algorithm 2).
#include "core/interpreter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "dataset/generator.hpp"
#include "graph/ops.hpp"
#include "support/dense_oracle.hpp"
#include "support/selection_oracle.hpp"

namespace cfgx {
namespace {

// The interpreter only needs *a* GNN and *a* scorer; untrained instances
// exercise every algorithmic invariant.
class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest()
      : rng_(42),
        gnn_([this] {
          GnnConfig config;
          config.gcn_dims = {10, 8};
          return GnnClassifier(config, rng_);
        }()),
        model_([this] {
          ExplainerModelConfig config;
          config.embedding_dim = 8;
          config.num_classes = kFamilyCount;
          return ExplainerModel(config, rng_);
        }()),
        graph_(generate_acfg(Family::Rbot, rng_)) {}

  Rng rng_;
  GnnClassifier gnn_;
  ExplainerModel model_;
  Acfg graph_;
};

TEST_F(InterpreterTest, OrderingIsAPermutationOfAllNodes) {
  Interpreter interpreter(model_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  EXPECT_EQ(result.ordered_nodes.size(), graph_.num_nodes());
  std::set<std::uint32_t> unique(result.ordered_nodes.begin(),
                                 result.ordered_nodes.end());
  EXPECT_EQ(unique.size(), graph_.num_nodes());
}

TEST_F(InterpreterTest, SubgraphCountMatchesStepSize) {
  Interpreter interpreter(model_, gnn_);
  InterpretationConfig config;
  config.step_size_percent = 10;
  const Interpretation result = interpreter.interpret(graph_, config);
  EXPECT_EQ(result.subgraph_nodes.size(), 10u);
}

TEST_F(InterpreterTest, SubgraphSizesFollowTheGrid) {
  Interpreter interpreter(model_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  const double n = graph_.num_nodes();
  for (std::size_t k = 0; k < result.subgraph_nodes.size(); ++k) {
    const double expected = std::round(n * static_cast<double>(k + 1) / 10.0);
    EXPECT_NEAR(static_cast<double>(result.subgraph_nodes[k].size()), expected,
                1.0)
        << "subgraph " << k;
  }
  // The last snapshot is the full graph.
  EXPECT_EQ(result.subgraph_nodes.back().size(), graph_.num_nodes());
}

TEST_F(InterpreterTest, SubgraphsAreNested) {
  Interpreter interpreter(model_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  for (std::size_t k = 1; k < result.subgraph_nodes.size(); ++k) {
    std::set<std::uint32_t> larger(result.subgraph_nodes[k].begin(),
                                   result.subgraph_nodes[k].end());
    for (std::uint32_t v : result.subgraph_nodes[k - 1]) {
      EXPECT_TRUE(larger.count(v)) << "node " << v << " lost at level " << k;
    }
  }
}

TEST_F(InterpreterTest, SmallestSubgraphIsPrefixOfOrdering) {
  Interpreter interpreter(model_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  const auto& smallest = result.subgraph_nodes.front();
  std::set<std::uint32_t> prefix(
      result.ordered_nodes.begin(),
      result.ordered_nodes.begin() +
          static_cast<std::ptrdiff_t>(smallest.size()));
  for (std::uint32_t v : smallest) {
    EXPECT_TRUE(prefix.count(v));
  }
}

TEST_F(InterpreterTest, AdjacencySnapshotsMatchNodeSets) {
  // Each retained node set rebuilds its subgraph: dropped nodes are fully
  // masked, and every edge between two kept nodes survives.
  Interpreter interpreter(model_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  const Matrix full = oracle::dense_adjacency(graph_);
  for (std::size_t k = 0; k < result.subgraph_nodes.size(); ++k) {
    const Acfg sub = masked_subgraph(graph_, result.subgraph_nodes[k]);
    const Matrix a = oracle::dense_adjacency(sub);
    std::set<std::uint32_t> kept(result.subgraph_nodes[k].begin(),
                                 result.subgraph_nodes[k].end());
    for (std::uint32_t v = 0; v < graph_.num_nodes(); ++v) {
      if (!kept.count(v)) {
        EXPECT_TRUE(oracle::node_is_masked(a, v))
            << "level " << k << " node " << v << " should be masked";
        continue;
      }
      for (std::uint32_t u : kept) {
        EXPECT_EQ(a(v, u), full(v, u)) << "level " << k << " edge " << v
                                       << "->" << u;
      }
    }
  }
}

// Pins Algorithm 2's selection on NaN scores: the min-scan compares with
// `score < min`, so a NaN score is never selected while a finite score
// remains. An isolated node with a NaN feature row gets a NaN embedding,
// and a scorer without hidden layers (whose ReLU would map NaN to 0) turns
// it into a NaN score; nothing else changes, since the node's row touches
// no other node. So it is pruned last and leads ordered_nodes, and every
// other node keeps the ordering it has on the graph without that node. The
// base graph has an even node count so that, at step 50 and 100, each
// iteration prunes as many base nodes in both runs.
TEST_F(InterpreterTest, NanScoredNodeIsNeverSelectedWhileFiniteScoresRemain) {
  const std::uint32_t base_nodes = graph_.num_nodes() + graph_.num_nodes() % 2;
  Acfg base(base_nodes, graph_.feature_count());
  base.set_edges(graph_.edges());
  Acfg with_nan(base_nodes + 1, graph_.feature_count());
  with_nan.set_edges(graph_.edges());
  for (std::uint32_t v = 0; v < graph_.num_nodes(); ++v) {
    for (std::size_t c = 0; c < graph_.feature_count(); ++c) {
      base.features()(v, c) = graph_.features()(v, c);
      with_nan.features()(v, c) = graph_.features()(v, c);
    }
  }
  const std::uint32_t nan_node = base_nodes;
  for (std::size_t c = 0; c < graph_.feature_count(); ++c) {
    with_nan.features()(nan_node, c) = std::nan("");
  }

  ExplainerModelConfig linear_scorer;
  linear_scorer.embedding_dim = 8;
  linear_scorer.num_classes = kFamilyCount;
  linear_scorer.scorer_dims = {1};
  ExplainerModel model(linear_scorer, rng_);
  const Matrix scores = model.score_nodes(gnn_.embed(with_nan));
  ASSERT_TRUE(std::isnan(scores(nan_node, 0)));
  for (std::uint32_t v = 0; v < nan_node; ++v) {
    ASSERT_TRUE(std::isfinite(scores(v, 0))) << "node " << v;
  }

  Interpreter interpreter(model, gnn_);
  for (unsigned step : {10u, 50u, 100u}) {
    InterpretationConfig config;
    config.step_size_percent = step;
    const Interpretation result = interpreter.interpret(with_nan, config);
    ASSERT_EQ(result.ordered_nodes.size(), with_nan.num_nodes());
    EXPECT_EQ(result.ordered_nodes.front(), nan_node) << "step " << step;
    for (const auto& nodes : result.subgraph_nodes) {
      EXPECT_NE(std::find(nodes.begin(), nodes.end(), nan_node), nodes.end())
          << "step " << step << ": NaN node pruned early";
    }
    if (step == 10) continue;  // pruning counts differ between the graphs
    const std::vector<std::uint32_t> rest(result.ordered_nodes.begin() + 1,
                                          result.ordered_nodes.end());
    EXPECT_EQ(rest, interpreter.interpret(base, config).ordered_nodes)
        << "step " << step;
  }
}

// Theta_s liveness means "not yet pruned", not the GCN's activity mask: a
// node with no edges and an all-zero feature row has inv_sqrt == 0 from the
// start (its embedding is zero), yet it is a candidate victim and must be
// scored like any other. At step 100 the whole ranking comes from one
// scoring pass, so it must equal the min-scan over score_nodes(embed(G)).
TEST_F(InterpreterTest, InactiveUnprunedNodeIsStillScored) {
  const std::uint32_t inactive = graph_.num_nodes();
  Acfg graph(inactive + 1, graph_.feature_count());
  graph.set_edges(graph_.edges());
  for (std::uint32_t v = 0; v < inactive; ++v) {
    for (std::size_t c = 0; c < graph_.feature_count(); ++c) {
      graph.features()(v, c) = graph_.features()(v, c);
    }
  }
  const Matrix scores = model_.score_nodes(gnn_.embed(graph));
  // The inactive node's score (sigmoid > 0) is not the strict minimum, so
  // leaving its row unscored (exact 0.0) would move it to the front of the
  // removal order.
  bool beaten = false;
  for (std::uint32_t v = 0; v < inactive; ++v) {
    beaten = beaten || scores(v, 0) <= scores(inactive, 0);
  }
  ASSERT_TRUE(beaten);

  std::vector<std::uint32_t> remaining(graph.num_nodes());
  for (std::uint32_t v = 0; v < graph.num_nodes(); ++v) remaining[v] = v;
  std::vector<std::uint32_t> expected =
      oracle::min_scan_select_victims(remaining, scores, graph.num_nodes());
  std::reverse(expected.begin(), expected.end());

  InterpretationConfig config;
  config.step_size_percent = 100;
  EXPECT_EQ(Interpreter(model_, gnn_).interpret(graph, config).ordered_nodes,
            expected);
}

TEST_F(InterpreterTest, StepSizeValidation) {
  Interpreter interpreter(model_, gnn_);
  InterpretationConfig config;
  config.step_size_percent = 0;
  EXPECT_THROW(interpreter.interpret(graph_, config), std::invalid_argument);
  config.step_size_percent = 30;  // does not divide 100
  EXPECT_THROW(interpreter.interpret(graph_, config), std::invalid_argument);
  config.step_size_percent = 101;
  EXPECT_THROW(interpreter.interpret(graph_, config), std::invalid_argument);
}

TEST_F(InterpreterTest, EmptyGraphThrows) {
  Interpreter interpreter(model_, gnn_);
  EXPECT_THROW(interpreter.interpret(Acfg(0)), std::invalid_argument);
}

TEST_F(InterpreterTest, SingleNodeGraph) {
  Acfg one(1);
  one.set_label(0);
  Interpreter interpreter(model_, gnn_);
  const Interpretation result = interpreter.interpret(one);
  ASSERT_EQ(result.ordered_nodes.size(), 1u);
  EXPECT_EQ(result.ordered_nodes[0], 0u);
  EXPECT_EQ(result.subgraph_nodes.back().size(), 1u);
}

TEST_F(InterpreterTest, DeterministicAcrossCalls) {
  Interpreter interpreter(model_, gnn_);
  const Interpretation a = interpreter.interpret(graph_);
  const Interpretation b = interpreter.interpret(graph_);
  EXPECT_EQ(a.ordered_nodes, b.ordered_nodes);
}

class InterpreterStepSize : public ::testing::TestWithParam<unsigned> {};

TEST_P(InterpreterStepSize, GridSizesForEveryDivisorStep) {
  Rng rng(7);
  GnnConfig gnn_config;
  gnn_config.gcn_dims = {8, 6};
  GnnClassifier gnn(gnn_config, rng);
  ExplainerModelConfig model_config;
  model_config.embedding_dim = 6;
  model_config.num_classes = kFamilyCount;
  ExplainerModel model(model_config, rng);
  const Acfg graph = generate_acfg(Family::Zbot, rng);

  Interpreter interpreter(model, gnn);
  InterpretationConfig config;
  config.step_size_percent = GetParam();
  const Interpretation result = interpreter.interpret(graph, config);
  EXPECT_EQ(result.subgraph_nodes.size(), 100u / GetParam());
  EXPECT_EQ(result.ordered_nodes.size(), graph.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(Steps, InterpreterStepSize,
                         ::testing::Values(5u, 10u, 20u, 25u, 50u, 100u));

TEST(InterpreterReadouts, WorksWithSortPoolClassifier) {
  // CFGExplainer's interpretation must function unchanged under the
  // DGCNN-style SortPool readout (model-agnosticism at the unit level).
  Rng rng(91);
  GnnConfig gnn_config;
  gnn_config.gcn_dims = {10, 8};
  gnn_config.readout = ReadoutKind::SortPool;
  gnn_config.sortpool_k = 6;
  GnnClassifier gnn(gnn_config, rng);
  ExplainerModelConfig model_config;
  model_config.embedding_dim = 8;
  model_config.num_classes = kFamilyCount;
  ExplainerModel theta(model_config, rng);
  const Acfg graph = generate_acfg(Family::Swizzor, rng);

  Interpreter interpreter(theta, gnn);
  const Interpretation result = interpreter.interpret(graph);
  EXPECT_EQ(result.ordered_nodes.size(), graph.num_nodes());
  std::set<std::uint32_t> unique(result.ordered_nodes.begin(),
                                 result.ordered_nodes.end());
  EXPECT_EQ(unique.size(), graph.num_nodes());
}

}  // namespace
}  // namespace cfgx
