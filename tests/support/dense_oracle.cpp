#include "support/dense_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/ops.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace cfgx::oracle {
namespace {

double stable_sigmoid(double x) {
  return x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                  : std::exp(x) / (1.0 + std::exp(x));
}

}  // namespace

Matrix dense_adjacency(const Acfg& graph) {
  Matrix a(graph.num_nodes(), graph.num_nodes());
  for (const Edge& e : graph.edges()) {
    a(e.src, e.dst) = std::max(a(e.src, e.dst), e.weight());
  }
  return a;
}

Matrix normalized_adjacency(const Matrix& adjacency, const Matrix* features) {
  std::vector<double> unused;
  return normalized_adjacency(adjacency, unused, features);
}

Matrix normalized_adjacency(const Matrix& adjacency,
                            std::vector<double>& inv_sqrt_degree_out,
                            const Matrix* features) {
  if (adjacency.rows() != adjacency.cols()) {
    throw std::invalid_argument("normalized_adjacency: matrix must be square");
  }
  const std::size_t n = adjacency.rows();
  if (features != nullptr && features->rows() != n) {
    throw std::invalid_argument(
        "normalized_adjacency: feature/adjacency row mismatch");
  }

  // S = A + A^T; a node is active (and gets a self-loop) when it has an
  // incident edge or a non-zero feature row.
  Matrix s(n, n);
  std::vector<char> active(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double v = adjacency(i, j) + adjacency(j, i);
      s(i, j) = v;
      if (v != 0.0) {
        active[i] = 1;
        active[j] = 1;
      }
    }
  }
  if (features != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      if (active[i]) continue;
      for (std::size_t c = 0; c < features->cols(); ++c) {
        if ((*features)(i, c) != 0.0) {
          active[i] = 1;
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i]) s(i, i) += 1.0;
  }

  std::vector<double> inv_sqrt_degree(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double degree = 0.0;
    for (std::size_t j = 0; j < n; ++j) degree += s(i, j);
    if (degree > 0.0) inv_sqrt_degree[i] = 1.0 / std::sqrt(degree);
  }

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      s(i, j) *= inv_sqrt_degree[i] * inv_sqrt_degree[j];
    }
  }
  inv_sqrt_degree_out = std::move(inv_sqrt_degree);
  return s;
}

CsrMatrix normalized_adjacency_csr(const Matrix& adjacency,
                                   const Matrix* features) {
  std::vector<double> unused;
  return normalized_adjacency_csr(adjacency, unused, features);
}

CsrMatrix normalized_adjacency_csr(const Matrix& adjacency,
                                   std::vector<double>& inv_sqrt_degree,
                                   const Matrix* features) {
  return CsrMatrix::from_dense(
      normalized_adjacency(adjacency, inv_sqrt_degree, features));
}

std::size_t count_active_nodes(const Matrix& adjacency, const Matrix& features) {
  if (adjacency.rows() != adjacency.cols() ||
      adjacency.rows() != features.rows()) {
    throw std::invalid_argument("count_active_nodes: shape mismatch");
  }
  const std::size_t n = adjacency.rows();
  std::size_t active = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bool is_active = false;
    for (std::size_t j = 0; j < n && !is_active; ++j) {
      if (adjacency(i, j) != 0.0 || adjacency(j, i) != 0.0) is_active = true;
    }
    for (std::size_t c = 0; c < features.cols() && !is_active; ++c) {
      if (features(i, c) != 0.0) is_active = true;
    }
    if (is_active) ++active;
  }
  return active;
}

void mask_node(Matrix& adjacency, Matrix& features, std::uint32_t node) {
  if (node >= adjacency.rows() || adjacency.rows() != adjacency.cols()) {
    throw std::out_of_range("mask_node: node out of range");
  }
  if (features.rows() != adjacency.rows()) {
    throw std::invalid_argument("mask_node: feature/adjacency row mismatch");
  }
  for (std::size_t j = 0; j < adjacency.cols(); ++j) {
    adjacency(node, j) = 0.0;
    adjacency(j, node) = 0.0;
  }
  for (std::size_t c = 0; c < features.cols(); ++c) features(node, c) = 0.0;
}

bool node_is_masked(const Matrix& adjacency, std::uint32_t node) {
  for (std::size_t j = 0; j < adjacency.cols(); ++j) {
    if (adjacency(node, j) != 0.0 || adjacency(j, node) != 0.0) return false;
  }
  return true;
}

MaskedGraph keep_only(const Matrix& adjacency, const Matrix& features,
                      const std::vector<std::uint32_t>& kept) {
  MaskedGraph out{adjacency, features};
  std::vector<char> keep(adjacency.rows(), 0);
  for (std::uint32_t node : kept) {
    if (node >= adjacency.rows()) {
      throw std::out_of_range("keep_only: node out of range");
    }
    keep[node] = 1;
  }
  for (std::uint32_t node = 0; node < adjacency.rows(); ++node) {
    if (!keep[node]) mask_node(out.adjacency, out.features, node);
  }
  return out;
}

Matrix embed(const GnnClassifier& gnn, const Matrix& adjacency,
             const Matrix& raw_features) {
  std::vector<double> inv_sqrt;
  const CsrMatrix a_hat =
      normalized_adjacency_csr(adjacency, inv_sqrt, &raw_features);
  Matrix out;
  gnn.embed_into(a_hat, inv_sqrt, raw_features, out);
  return out;
}

Prediction predict(const GnnClassifier& gnn, const Matrix& adjacency,
                   const Matrix& raw_features) {
  Prediction prediction;
  prediction.probabilities = softmax_rows(
      gnn.class_logits(embed(gnn, adjacency, raw_features),
                       count_active_nodes(adjacency, raw_features)));
  prediction.predicted_class = argmax_rows(prediction.probabilities)[0];
  return prediction;
}

Matrix DenseCachedGnn::forward(const Matrix& adjacency,
                               const Matrix& raw_features) {
  a_hat_ = normalized_adjacency_csr(adjacency, inv_sqrt_, &raw_features);
  const std::size_t n = adjacency.rows();
  active_.assign(n, 0);
  active_count_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (inv_sqrt_[i] > 0.0) {
      active_[i] = 1;
      ++active_count_;
    }
  }

  const std::vector<Parameter*> params = gnn_.parameters();
  const std::size_t layer_count = gnn_.config().gcn_dims.size();
  layers_.assign(layer_count, LayerCache{});
  Matrix h = gnn_.scaler().fitted() ? gnn_.scaler().transform(raw_features)
                                    : raw_features;
  for (std::size_t l = 0; l < layer_count; ++l) {
    const Matrix& weight = params[2 * l]->value;
    const Matrix& bias = params[2 * l + 1]->value;
    LayerCache& cache = layers_[l];
    cache.h = h;
    cache.hw = matmul(h, weight);
    cache.preactivation = spmm(a_hat_, cache.hw);
    for (std::size_t r = 0; r < cache.preactivation.rows(); ++r) {
      for (std::size_t c = 0; c < cache.preactivation.cols(); ++c) {
        cache.preactivation(r, c) += bias(0, c);
      }
    }
    h = cache.preactivation;
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (h.data()[i] < 0.0) h.data()[i] = 0.0;
    }
  }

  // Readout input over the active rows only.
  const std::size_t f = h.cols();
  selection_.clear();
  if (gnn_.config().readout == ReadoutKind::MeanPool) {
    pooled_ = Matrix(1, f);
    for (std::size_t i = 0; i < n; ++i) {
      if (!active_[i]) continue;
      for (std::size_t c = 0; c < f; ++c) pooled_(0, c) += h(i, c);
    }
    pooled_ *= 1.0 / static_cast<double>(std::max<std::size_t>(1, active_count_));
  } else {
    std::vector<double> score(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (!active_[i]) continue;
      selection_.push_back(i);
      for (std::size_t c = 0; c < f; ++c) score[i] += h(i, c);
    }
    std::stable_sort(selection_.begin(), selection_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return score[a] > score[b];
                     });
    const std::size_t k = gnn_.config().sortpool_k;
    if (selection_.size() > k) selection_.resize(k);
    pooled_ = Matrix(1, k * f);
    for (std::size_t slot = 0; slot < selection_.size(); ++slot) {
      for (std::size_t c = 0; c < f; ++c) {
        pooled_(0, slot * f + c) = h(selection_[slot], c);
      }
    }
  }
  Matrix logits = matmul(pooled_, params[2 * layer_count]->value);
  for (std::size_t c = 0; c < logits.cols(); ++c) {
    logits(0, c) += params[2 * layer_count + 1]->value(0, c);
  }
  return logits;
}

DenseCachedGnn::Backward DenseCachedGnn::backward(const Matrix& grad_logits,
                                                  bool want_adjacency_grad) {
  const std::vector<Parameter*> params = gnn_.parameters();
  const std::size_t layer_count = layers_.size();
  Parameter& readout_w = *params[2 * layer_count];
  Parameter& readout_b = *params[2 * layer_count + 1];
  readout_w.grad += matmul_transpose_a(pooled_, grad_logits);
  readout_b.grad += grad_logits.col_sums();
  const Matrix grad_pooled = matmul_transpose_b(grad_logits, readout_w.value);

  const std::size_t n = active_.size();
  const std::size_t f = gnn_.config().embedding_dim();
  Matrix grad_h(n, f);
  if (gnn_.config().readout == ReadoutKind::MeanPool) {
    const double inv_n =
        1.0 / static_cast<double>(std::max<std::size_t>(1, active_count_));
    for (std::size_t r = 0; r < n; ++r) {
      if (!active_[r]) continue;
      for (std::size_t c = 0; c < f; ++c) grad_h(r, c) = grad_pooled(0, c) * inv_n;
    }
  } else {
    for (std::size_t slot = 0; slot < selection_.size(); ++slot) {
      for (std::size_t c = 0; c < f; ++c) {
        grad_h(selection_[slot], c) = grad_pooled(0, slot * f + c);
      }
    }
  }

  Matrix grad_a_hat;
  if (want_adjacency_grad) grad_a_hat = Matrix(n, n);
  for (std::size_t l = layer_count; l-- > 0;) {
    const LayerCache& cache = layers_[l];
    Parameter& weight = *params[2 * l];
    Parameter& bias = *params[2 * l + 1];
    Matrix grad_pre = grad_h;
    for (std::size_t i = 0; i < grad_pre.size(); ++i) {
      if (cache.preactivation.data()[i] <= 0.0) grad_pre.data()[i] = 0.0;
    }
    bias.grad += grad_pre.col_sums();
    const Matrix grad_hw = spmm_transpose_a(a_hat_, grad_pre);
    weight.grad += matmul_transpose_a(cache.h, grad_hw);
    if (want_adjacency_grad) {
      grad_a_hat += matmul_transpose_b(grad_pre, cache.hw);
    }
    grad_h = matmul_transpose_b(grad_hw, weight.value);
  }

  Backward result;
  result.grad_scaled_features = grad_h;
  if (want_adjacency_grad) {
    result.grad_adjacency = Matrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const double c = inv_sqrt_[i] * inv_sqrt_[j];
        result.grad_adjacency(i, j) = c * (grad_a_hat(i, j) + grad_a_hat(j, i));
      }
    }
  }
  return result;
}

std::vector<double> train_gnn(GnnClassifier& model, const Corpus& corpus,
                              const std::vector<std::size_t>& train_indices,
                              const GnnTrainConfig& config) {
  FeatureScaler scaler;
  scaler.fit(corpus, train_indices);
  model.set_scaler(std::move(scaler));

  std::vector<Matrix> adjacencies;
  std::vector<std::size_t> labels;
  for (std::size_t index : train_indices) {
    const Acfg& graph = corpus.graph(index);
    adjacencies.push_back(dense_adjacency(graph));
    labels.push_back(static_cast<std::size_t>(graph.label()));
  }

  DenseCachedGnn dense(model);
  Adam optimizer(model.parameters(), config.adam);
  Rng shuffle_rng(config.shuffle_seed);
  std::vector<std::size_t> order(train_indices.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<double> epoch_losses;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    shuffle_rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += config.batch_size) {
      const std::size_t end = std::min(order.size(), start + config.batch_size);
      model.zero_grad();
      double batch_loss = 0.0;
      for (std::size_t k = start; k < end; ++k) {
        const std::size_t i = order[k];
        const Matrix logits = dense.forward(
            adjacencies[i], corpus.graph(train_indices[i]).features());
        LossResult loss = softmax_cross_entropy(logits, {labels[i]});
        batch_loss += loss.value;
        loss.grad *= 1.0 / static_cast<double>(end - start);
        dense.backward(loss.grad, /*want_adjacency_grad=*/false);
      }
      optimizer.step();
      epoch_loss += batch_loss / static_cast<double>(end - start);
      ++batches;
    }
    epoch_losses.push_back(epoch_loss / static_cast<double>(batches));
  }
  return epoch_losses;
}

GnnExplainerScores gnnexplainer(const GnnClassifier& gnn, const Acfg& graph,
                                const GnnExplainerConfig& config) {
  GnnClassifier model = gnn.clone();
  DenseCachedGnn dense(model);
  const std::size_t num_edges = graph.num_edges();
  const std::size_t num_features = graph.feature_count();
  const Matrix base_adjacency = dense_adjacency(graph);
  const Matrix& base_features = graph.features();
  const std::size_t target_class = model.predict(graph).predicted_class;
  GnnExplainerScores scores;
  if (num_edges == 0) return scores;

  Rng rng(config.seed ^ (graph.num_nodes() * 0x9e3779b97f4a7c15ULL));
  Parameter mask("edge_mask", Matrix(1, num_edges));
  for (std::size_t e = 0; e < num_edges; ++e) {
    mask.value(0, e) = rng.normal(config.mask_init_mean, config.mask_init_stddev);
  }
  Parameter feature_mask("feature_mask", Matrix(1, num_features));
  for (std::size_t f = 0; f < num_features; ++f) {
    feature_mask.value(0, f) =
        rng.normal(config.mask_init_mean, config.mask_init_stddev);
  }
  std::vector<Parameter*> params{&mask};
  if (config.learn_feature_mask) params.push_back(&feature_mask);
  Adam optimizer(params, AdamConfig{.learning_rate = config.learning_rate});

  std::vector<double> inv_std(num_features, 1.0);
  if (model.scaler().fitted()) {
    for (std::size_t f = 0; f < num_features; ++f) {
      inv_std[f] = 1.0 / model.scaler().stddev()[f];
    }
  }
  const auto regularizer_grad = [&](double g, double size_weight) {
    const double dgate = g * (1.0 - g);
    const double eps = 1e-12;
    return size_weight * dgate + config.entropy_weight * dgate *
                                     (std::log(1.0 - g + eps) - std::log(g + eps));
  };

  const auto& edges = graph.edges();
  for (std::size_t step = 0; step < config.iterations; ++step) {
    Matrix masked = base_adjacency;
    std::vector<double> gate(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      gate[e] = stable_sigmoid(mask.value(0, e));
      masked(edges[e].src, edges[e].dst) = edges[e].weight() * gate[e];
    }
    Matrix features = base_features;
    std::vector<double> feature_gate(num_features, 1.0);
    if (config.learn_feature_mask) {
      for (std::size_t f = 0; f < num_features; ++f) {
        feature_gate[f] = stable_sigmoid(feature_mask.value(0, f));
      }
      for (std::size_t r = 0; r < features.rows(); ++r) {
        for (std::size_t f = 0; f < num_features; ++f) {
          features(r, f) *= feature_gate[f];
        }
      }
    }

    model.zero_grad();
    const Matrix logits = dense.forward(masked, features);
    const LossResult loss = softmax_cross_entropy(logits, {target_class});
    const auto backward = dense.backward(loss.grad, true);

    mask.zero_grad();
    for (std::size_t e = 0; e < num_edges; ++e) {
      const double g = gate[e];
      double grad = backward.grad_adjacency(edges[e].src, edges[e].dst) *
                    edges[e].weight() * g * (1.0 - g);
      grad += regularizer_grad(g, config.size_weight);
      mask.grad(0, e) = grad;
    }
    if (config.learn_feature_mask) {
      feature_mask.zero_grad();
      for (std::size_t f = 0; f < num_features; ++f) {
        const double g = feature_gate[f];
        double grad = 0.0;
        for (std::size_t r = 0; r < base_features.rows(); ++r) {
          grad += backward.grad_scaled_features(r, f) * inv_std[f] *
                  base_features(r, f);
        }
        grad *= g * (1.0 - g);
        grad += regularizer_grad(g, config.feature_size_weight);
        feature_mask.grad(0, f) = grad;
      }
    }
    optimizer.step();
  }

  for (std::size_t e = 0; e < num_edges; ++e) {
    scores.edge.push_back(stable_sigmoid(mask.value(0, e)));
  }
  if (config.learn_feature_mask) {
    for (std::size_t f = 0; f < num_features; ++f) {
      scores.feature.push_back(stable_sigmoid(feature_mask.value(0, f)));
    }
  }
  return scores;
}

DensePgExplainer::DensePgExplainer(const GnnClassifier& gnn,
                                   PgExplainerConfig config)
    : gnn_(gnn.clone()), config_(config), rng_(config.seed) {
  const std::size_t in_dim = 2 * gnn_.config().embedding_dim();
  predictor_.emplace<Dense>(in_dim, config_.hidden_dim, rng_, "pg.h0");
  predictor_.emplace<Relu>();
  predictor_.emplace<Dense>(config_.hidden_dim, std::size_t{1}, rng_, "pg.out");
}

Matrix DensePgExplainer::edge_inputs(const Acfg& graph,
                                     const Matrix& embeddings) const {
  const std::size_t f = embeddings.cols();
  Matrix inputs(graph.num_edges(), 2 * f);
  const auto& edges = graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    for (std::size_t c = 0; c < f; ++c) {
      inputs(e, c) = embeddings(edges[e].src, c);
      inputs(e, f + c) = embeddings(edges[e].dst, c);
    }
  }
  return inputs;
}

void DensePgExplainer::fit(const Corpus& corpus,
                           const std::vector<std::size_t>& train_indices) {
  Adam optimizer(predictor_.parameters(),
                 AdamConfig{.learning_rate = config_.learning_rate});
  DenseCachedGnn dense(gnn_);
  struct Prepared {
    Matrix adjacency;
    Matrix edge_in;
    const Acfg* graph;
    std::size_t target;
  };
  std::vector<Prepared> prepared;
  for (std::size_t index : train_indices) {
    const Acfg& graph = corpus.graph(index);
    if (graph.num_edges() == 0) continue;
    const Matrix z = gnn_.embed(graph);
    prepared.push_back({dense_adjacency(graph), edge_inputs(graph, z), &graph,
                        argmax_rows(gnn_.class_logits(z))[0]});
  }

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const double t = config_.epochs <= 1
                         ? 1.0
                         : static_cast<double>(epoch) /
                               static_cast<double>(config_.epochs - 1);
    const double temperature =
        config_.temperature_start +
        t * (config_.temperature_end - config_.temperature_start);
    for (Prepared& p : prepared) {
      const std::size_t num_edges = p.graph->num_edges();
      const auto& edges = p.graph->edges();
      predictor_.zero_grad();
      const Matrix omega = predictor_.forward(p.edge_in);
      std::vector<double> gate(num_edges), dgate_domega(num_edges);
      Matrix masked = p.adjacency;
      for (std::size_t e = 0; e < num_edges; ++e) {
        const double u = rng_.uniform(1e-6, 1.0 - 1e-6);
        const double noise = std::log(u) - std::log(1.0 - u);
        const double pre = (omega(e, 0) + noise) / temperature;
        gate[e] = stable_sigmoid(pre);
        dgate_domega[e] = gate[e] * (1.0 - gate[e]) / temperature;
        masked(edges[e].src, edges[e].dst) = edges[e].weight() * gate[e];
      }

      gnn_.zero_grad();
      const Matrix logits = dense.forward(masked, p.graph->features());
      const LossResult loss = softmax_cross_entropy(logits, {p.target});
      const auto backward = dense.backward(loss.grad, true);

      Matrix grad_omega(num_edges, 1);
      for (std::size_t e = 0; e < num_edges; ++e) {
        double grad = backward.grad_adjacency(edges[e].src, edges[e].dst) *
                      edges[e].weight() * dgate_domega[e];
        grad += config_.size_weight * dgate_domega[e];
        const double g = gate[e];
        const double eps = 1e-12;
        grad += config_.entropy_weight * dgate_domega[e] *
                (std::log(1.0 - g + eps) - std::log(g + eps));
        grad_omega(e, 0) = grad;
      }
      predictor_.backward(grad_omega);
      optimizer.step();
    }
  }
}

std::vector<double> DensePgExplainer::edge_scores(const Acfg& graph) {
  const Matrix z = gnn_.embed(graph);
  if (graph.num_edges() == 0) return {};
  const Matrix omega = predictor_.forward(edge_inputs(graph, z));
  std::vector<double> scores(graph.num_edges());
  for (std::size_t e = 0; e < scores.size(); ++e) {
    scores[e] = stable_sigmoid(omega(e, 0));
  }
  return scores;
}

}  // namespace cfgx::oracle
