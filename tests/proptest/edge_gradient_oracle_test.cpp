// Differential oracle for the edge-list training path: GnnClassifier's
// forward_cached/backward_cached normalize the edge list straight into a
// CSR and return one adjacency gradient per edge. Against the dense
// reference (support/dense_oracle: dense adjacency, dense normalization,
// N x N dLoss/dA_hat), every output must be equal BIT for bit:
//  * logits, every parameter gradient, grad_scaled_features, and each
//    edge's gradient versus the dense gradient at its (src, dst) entry —
//    over random graphs with Flow+Call pairs in both list orders,
//    self-loop edges, isolated featureful nodes, gates that underflow to
//    0.0, fitted and unfitted scalers, MeanPool and SortPool;
//  * the consumers end to end: train_gnn epoch losses and weights,
//    GNNExplainer edge/feature scores, PGExplainer fit plus edge scores.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "explain/gnnexplainer.hpp"
#include "explain/pgexplainer.hpp"
#include "gnn/classifier.hpp"
#include "gnn/trainer.hpp"
#include "proptest/generators.hpp"
#include "proptest/proptest.hpp"
#include "support/dense_oracle.hpp"
#include "util/rng.hpp"

namespace cfgx {
namespace {

using proptest::Gen;

bool bit_identical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string checkpoint_bytes(const GnnClassifier& model) {
  std::stringstream out;
  model.save(out);
  return out.str();
}

double stable_sigmoid(double x) {
  return x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                  : std::exp(x) / (1.0 + std::exp(x));
}

struct GradientCase {
  Acfg graph;
  std::vector<double> gates;  // empty: Edge::weight() (the training rule)
  ReadoutKind readout = ReadoutKind::MeanPool;
  std::size_t sortpool_k = 1;
  bool fit_scaler = false;
  std::uint64_t seed = 0;
};

std::string debug_string(const GradientCase& value) {
  std::string out = cfgx::debug_string(value.graph) + "\ngates:";
  for (double g : value.gates) out += " " + std::to_string(g);
  out += value.readout == ReadoutKind::SortPool
             ? "\nSortPool k=" + std::to_string(value.sortpool_k)
             : "\nMeanPool";
  out += value.fit_scaler ? ", scaler" : ", no scaler";
  return out + ", seed " + std::to_string(value.seed);
}

Gen<GradientCase> gradient_cases() {
  Gen<GradientCase> gen;
  gen.generate = [](Rng& rng) {
    GradientCase out;
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(12));
    std::vector<Edge> edges;
    std::vector<char> taken(2 * n * n, 0);  // (src, dst, kind) triples
    const auto add = [&](std::uint32_t s, std::uint32_t d, EdgeKind kind) {
      char& slot = taken[2 * (s * n + d) + (kind == EdgeKind::Call)];
      if (!slot) edges.push_back({s, d, kind});
      slot = 1;
    };
    const std::size_t draws = rng.uniform_index(3 * n + 1);
    for (std::size_t k = 0; k < draws; ++k) {
      const auto s = static_cast<std::uint32_t>(rng.uniform_index(n));
      // Every fourth draw is a self-loop edge.
      const auto d = rng.bernoulli(0.25)
                         ? s
                         : static_cast<std::uint32_t>(rng.uniform_index(n));
      const EdgeKind kind = rng.bernoulli(0.3) ? EdgeKind::Call : EdgeKind::Flow;
      add(s, d, kind);
      // A coincident Flow+Call pair, in either list order.
      if (rng.bernoulli(0.3)) {
        add(s, d, kind == EdgeKind::Call ? EdgeKind::Flow : EdgeKind::Call);
      }
    }
    out.graph = Acfg(n);
    out.graph.set_edges(std::move(edges));
    // Integer features with zero rows: isolated nodes with features stay
    // active, isolated zero rows are padding.
    Matrix& x = out.graph.features();
    for (std::size_t r = 0; r < x.rows(); ++r) {
      if (rng.bernoulli(0.3)) continue;
      for (std::size_t c = 0; c < x.cols(); ++c) {
        x(r, c) = static_cast<double>(rng.uniform_index(5));
      }
    }
    if (rng.bernoulli(0.7)) {
      // sigmoid of the mask logit, with some logits deep enough in the
      // tail that the gate underflows to exactly 0.0.
      for (std::size_t e = 0; e < out.graph.num_edges(); ++e) {
        const double logit =
            rng.bernoulli(0.2) ? -800.0 : rng.uniform(-4.0, 4.0);
        out.gates.push_back(stable_sigmoid(logit));
      }
    }
    out.readout =
        rng.bernoulli(0.5) ? ReadoutKind::SortPool : ReadoutKind::MeanPool;
    out.sortpool_k = 1 + rng.uniform_index(n + 2);
    out.fit_scaler = rng.bernoulli(0.5);
    out.seed = rng();
    return out;
  };
  return gen;
}

TEST(EdgeGradientOracle, CachedForwardBackwardBitIdenticalToDense) {
  CHECK_PROPERTY(
      "edge-list forward_cached/backward_cached == dense reference",
      gradient_cases(), [](const GradientCase& c) {
        Rng rng(c.seed);
        GnnConfig config;
        config.gcn_dims = {6, 5, 4};
        config.num_classes = 3;
        config.readout = c.readout;
        config.sortpool_k = c.sortpool_k;
        GnnClassifier model(config, rng);
        if (c.fit_scaler) {
          Matrix packed(2, kAcfgFeatureCount);
          for (std::size_t f = 0; f < kAcfgFeatureCount; ++f) {
            packed(0, f) = rng.uniform(-1.0, 2.0);
            packed(1, f) = rng.uniform(0.5, 3.0);
          }
          model.set_scaler(FeatureScaler::from_matrix(packed));
        }
        Matrix grad_logits(1, config.num_classes);
        for (std::size_t k = 0; k < grad_logits.size(); ++k) {
          grad_logits.data()[k] = rng.uniform(-1.0, 1.0);
        }
        GnnClassifier reference_model = model.clone();

        const auto& edges = c.graph.edges();
        std::vector<double> weights;
        for (std::size_t e = 0; e < c.gates.size(); ++e) {
          weights.push_back(edges[e].weight() * c.gates[e]);
        }
        const std::vector<double>* edge_weights =
            c.gates.empty() ? nullptr : &weights;
        // The dense rule the explainers used: the graph's dense adjacency
        // with each edge's gated weight written over it in list order.
        Matrix adjacency = oracle::dense_adjacency(c.graph);
        for (std::size_t e = 0; e < weights.size(); ++e) {
          adjacency(edges[e].src, edges[e].dst) = weights[e];
        }

        model.zero_grad();
        const Matrix logits =
            model.forward_cached(edges, c.graph.features(), edge_weights);
        const auto result = model.backward_cached(grad_logits, true);

        reference_model.zero_grad();
        oracle::DenseCachedGnn dense(reference_model);
        const Matrix reference_logits =
            dense.forward(adjacency, c.graph.features());
        const auto reference = dense.backward(grad_logits, true);

        if (!bit_identical(logits, reference_logits)) return false;
        if (!bit_identical(result.grad_scaled_features,
                           reference.grad_scaled_features)) {
          return false;
        }
        const auto params = model.parameters();
        const auto reference_params = reference_model.parameters();
        for (std::size_t p = 0; p < params.size(); ++p) {
          if (!bit_identical(params[p]->grad, reference_params[p]->grad)) {
            return false;
          }
        }
        if (result.grad_adjacency.size() != edges.size()) return false;
        for (std::size_t e = 0; e < edges.size(); ++e) {
          const double expected =
              reference.grad_adjacency(edges[e].src, edges[e].dst);
          if (std::memcmp(&result.grad_adjacency[e], &expected,
                          sizeof(double)) != 0) {
            return false;
          }
        }
        return true;
      },
      {.iterations = 150});
}

// Consumers end to end, on corpus graphs plus a hand-built graph with
// both duplicate-pair list orders and a self-loop.
class EdgeGradientConsumers : public ::testing::Test {
 protected:
  static Corpus make_corpus() {
    CorpusConfig config;
    config.samples_per_family = 1;
    config.seed = 13;
    std::vector<Acfg> graphs = generate_corpus(config).graphs();
    Acfg pairs(7);
    pairs.set_edges({{0, 1, EdgeKind::Flow}, {0, 1, EdgeKind::Call},
                     {2, 1, EdgeKind::Call}, {2, 1, EdgeKind::Flow},
                     {1, 2, EdgeKind::Flow}, {3, 3, EdgeKind::Flow},
                     {3, 4, EdgeKind::Call}, {4, 5, EdgeKind::Flow}});
    for (std::size_t i = 0; i < pairs.features().size(); ++i) {
      pairs.features().data()[i] = static_cast<double>(i % 4);
    }
    pairs.set_label(0);
    graphs.push_back(std::move(pairs));
    std::vector<std::uint64_t> seeds(graphs.size(), 0);
    return Corpus(std::move(graphs), std::move(seeds), config);
  }

  static GnnConfig small_config(ReadoutKind readout) {
    GnnConfig config;
    config.gcn_dims = {10, 8};
    config.readout = readout;
    config.sortpool_k = 6;
    return config;
  }

  std::vector<std::size_t> all_indices() const {
    std::vector<std::size_t> all(corpus_.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }

  Corpus corpus_ = make_corpus();
};

TEST_F(EdgeGradientConsumers, TrainGnnMatchesDenseReference) {
  for (const ReadoutKind readout :
       {ReadoutKind::MeanPool, ReadoutKind::SortPool}) {
    Rng rng(5);
    GnnClassifier model(small_config(readout), rng);
    GnnClassifier reference = model.clone();
    GnnTrainConfig config;
    config.epochs = 3;
    config.batch_size = 4;
    const auto losses =
        train_gnn(model, corpus_, all_indices(), config).epoch_losses;
    const auto reference_losses =
        oracle::train_gnn(reference, corpus_, all_indices(), config);
    EXPECT_TRUE(bit_identical(losses, reference_losses))
        << "readout " << static_cast<int>(readout);
    EXPECT_EQ(checkpoint_bytes(model), checkpoint_bytes(reference))
        << "readout " << static_cast<int>(readout);
  }
}

TEST_F(EdgeGradientConsumers, GnnExplainerMatchesDenseReference) {
  Rng rng(6);
  GnnClassifier gnn(small_config(ReadoutKind::MeanPool), rng);
  GnnTrainConfig train;
  train.epochs = 2;
  train_gnn(gnn, corpus_, all_indices(), train);
  for (const bool features : {false, true}) {
    GnnExplainerConfig config;
    config.iterations = 12;
    config.learn_feature_mask = features;
    GnnExplainer explainer(gnn, config);
    for (std::size_t index : {std::size_t{0}, std::size_t{5},
                              corpus_.size() - 1}) {
      const Acfg& graph = corpus_.graph(index);
      explainer.explain(graph);
      const auto reference = oracle::gnnexplainer(gnn, graph, config);
      EXPECT_TRUE(bit_identical(explainer.last_edge_scores(), reference.edge))
          << "graph " << index << " feature mask " << features;
      EXPECT_TRUE(
          bit_identical(explainer.last_feature_scores(), reference.feature))
          << "graph " << index << " feature mask " << features;
    }
  }
}

TEST_F(EdgeGradientConsumers, PgExplainerMatchesDenseReference) {
  Rng rng(7);
  GnnClassifier gnn(small_config(ReadoutKind::MeanPool), rng);
  PgExplainerConfig config;
  config.epochs = 3;
  config.hidden_dim = 8;
  PgExplainer explainer(gnn, config);
  oracle::DensePgExplainer reference(gnn, config);
  explainer.fit(corpus_, all_indices());
  reference.fit(corpus_, all_indices());
  for (std::size_t index = 0; index < corpus_.size(); ++index) {
    EXPECT_TRUE(bit_identical(explainer.edge_scores(corpus_.graph(index)),
                              reference.edge_scores(corpus_.graph(index))))
        << "graph " << index;
  }
}

}  // namespace
}  // namespace cfgx
