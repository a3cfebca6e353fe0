// Dense N x N reference implementations of the graph path. Production
// code never densifies: it normalizes edge lists straight into a CSR
// (MaskedNormalizedAdjacency), masks with masked_subgraph(), and trains
// and explains through GnnClassifier::forward_cached/backward_cached on
// the edge list. The differential, metamorphic and property suites compare
// that path bit for bit against these references: the dense adjacency
// and its normalization, dense masking and prediction, and the dense
// cached training path with the GNN trainer, GNNExplainer and PGExplainer
// loops run through it. Everything here is built from public pieces of
// the library.
#pragma once

#include <cstdint>
#include <vector>

#include "dataset/corpus.hpp"
#include "explain/gnnexplainer.hpp"
#include "explain/pgexplainer.hpp"
#include "gnn/classifier.hpp"
#include "gnn/trainer.hpp"
#include "graph/acfg.hpp"
#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "nn/sparse.hpp"

namespace cfgx::oracle {

// Dense weighted adjacency A in {0,1,2}^(N x N): a Call edge dominates a
// coincident Flow edge.
Matrix dense_adjacency(const Acfg& graph);

// GCN propagation matrix A_hat = D^{-1/2} (S + I) D^{-1/2}, S = A + A^T,
// with the self-loop policy of graph/ops.hpp: a node gets its self-loop
// when it has an incident edge or (when `features` is given) a non-zero
// feature row. Optionally exports the per-node d^{-1/2} (0 when inactive).
Matrix normalized_adjacency(const Matrix& adjacency,
                            const Matrix* features = nullptr);
Matrix normalized_adjacency(const Matrix& adjacency,
                            std::vector<double>& inv_sqrt_degree,
                            const Matrix* features = nullptr);

// CsrMatrix::from_dense of the above: exact zeros dropped.
CsrMatrix normalized_adjacency_csr(const Matrix& adjacency,
                                   const Matrix* features = nullptr);
CsrMatrix normalized_adjacency_csr(const Matrix& adjacency,
                                   std::vector<double>& inv_sqrt_degree,
                                   const Matrix* features = nullptr);

// Nodes with an incident edge or a non-zero feature row.
std::size_t count_active_nodes(const Matrix& adjacency, const Matrix& features);

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

// The cached training path over a dense adjacency — the reference that
// GnnClassifier::forward_cached/backward_cached must match bit for bit:
// dense normalization, the CSR layer kernels, and a full N x N
// dLoss/dA_hat per layer (matmul_transpose_b, then +=) symmetrized into
// dLoss/dA. Reads and accumulates into the wrapped model's parameters
// exactly like forward_cached/backward_cached.
class DenseCachedGnn {
 public:
  explicit DenseCachedGnn(GnnClassifier& gnn) : gnn_(gnn) {}

  Matrix forward(const Matrix& adjacency, const Matrix& raw_features);

  struct Backward {
    Matrix grad_adjacency;  // [N, N]; empty unless requested
    Matrix grad_scaled_features;
  };
  Backward backward(const Matrix& grad_logits, bool want_adjacency_grad);

 private:
  struct LayerCache {
    Matrix h, hw, preactivation;
  };
  GnnClassifier& gnn_;
  CsrMatrix a_hat_;
  std::vector<double> inv_sqrt_;
  std::vector<char> active_;
  std::size_t active_count_ = 0;
  std::vector<LayerCache> layers_;
  Matrix pooled_;
  std::vector<std::size_t> selection_;
};

// train_gnn through DenseCachedGnn on each graph's dense_adjacency: the
// same scaler fit, Adam steps, shuffle and batching. Returns the per-epoch
// mean losses.
std::vector<double> train_gnn(GnnClassifier& model, const Corpus& corpus,
                              const std::vector<std::size_t>& train_indices,
                              const GnnTrainConfig& config);

// GnnExplainer::explain through DenseCachedGnn, writing the gated weights
// into a dense copy of the adjacency in edge-list order.
struct GnnExplainerScores {
  std::vector<double> edge;
  std::vector<double> feature;  // empty unless learn_feature_mask
};
GnnExplainerScores gnnexplainer(const GnnClassifier& gnn, const Acfg& graph,
                                const GnnExplainerConfig& config);

// PgExplainer with fit() running through DenseCachedGnn: same predictor
// initialization, Gumbel noise stream and Adam steps.
class DensePgExplainer {
 public:
  DensePgExplainer(const GnnClassifier& gnn, PgExplainerConfig config);
  void fit(const Corpus& corpus, const std::vector<std::size_t>& train_indices);
  std::vector<double> edge_scores(const Acfg& graph);

 private:
  Matrix edge_inputs(const Acfg& graph, const Matrix& embeddings) const;

  GnnClassifier gnn_;
  PgExplainerConfig config_;
  Rng rng_;
  Sequential predictor_;
};

}  // namespace cfgx::oracle
