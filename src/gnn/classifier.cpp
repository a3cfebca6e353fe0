#include "gnn/classifier.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "graph/ops.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "nn/workspace.hpp"

namespace cfgx {
namespace {

constexpr char kCheckpointMagic[] = "CFGXM002";
constexpr std::size_t kMagicLen = 8;

void write_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw SerializationError("GnnClassifier: truncated checkpoint");
  return value;
}

}  // namespace

GnnClassifier::GnnClassifier(GnnConfig config, Rng& rng)
    : config_(std::move(config)) {
  if (config_.gcn_dims.empty()) {
    throw std::invalid_argument("GnnClassifier: need at least one GCN layer");
  }
  std::size_t in_dim = config_.feature_dim;
  for (std::size_t i = 0; i < config_.gcn_dims.size(); ++i) {
    gcn_layers_.emplace_back(in_dim, config_.gcn_dims[i], rng,
                             "phi_e.gcn" + std::to_string(i));
    in_dim = config_.gcn_dims[i];
  }
  if (config_.readout == ReadoutKind::SortPool && config_.sortpool_k == 0) {
    throw std::invalid_argument("GnnClassifier: sortpool_k must be > 0");
  }
  const std::size_t readout_in =
      config_.readout == ReadoutKind::SortPool
          ? config_.sortpool_k * config_.embedding_dim()
          : config_.embedding_dim();
  readout_ = std::make_unique<Dense>(readout_in, config_.num_classes, rng,
                                     "phi_c.readout");
}

std::vector<std::size_t> GnnClassifier::sortpool_selection(
    const Matrix& embeddings, const std::vector<char>* active) const {
  std::vector<std::size_t> candidates;
  candidates.reserve(embeddings.rows());
  for (std::size_t i = 0; i < embeddings.rows(); ++i) {
    if (active != nullptr && !(*active)[i]) continue;
    candidates.push_back(i);
  }
  std::vector<double> score(embeddings.rows(), 0.0);
  for (std::size_t i : candidates) {
    for (std::size_t c = 0; c < embeddings.cols(); ++c) {
      score[i] += embeddings(i, c);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](std::size_t a, std::size_t b) {
                     return score[a] > score[b];
                   });
  if (candidates.size() > config_.sortpool_k) {
    candidates.resize(config_.sortpool_k);
  }
  return candidates;
}

Matrix GnnClassifier::readout_input(const Matrix& embeddings,
                                    std::size_t active_count,
                                    const std::vector<char>* active,
                                    std::vector<std::size_t>* selection_out) const {
  if (config_.readout == ReadoutKind::MeanPool) {
    if (selection_out != nullptr) selection_out->clear();
    if (active == nullptr) return pool(embeddings, active_count);
    // Cached path: sum active rows only (inactive rows carry the bias chain).
    Matrix pooled(1, embeddings.cols());
    for (std::size_t i = 0; i < embeddings.rows(); ++i) {
      if (!(*active)[i]) continue;
      for (std::size_t c = 0; c < embeddings.cols(); ++c) {
        pooled(0, c) += embeddings(i, c);
      }
    }
    pooled *= 1.0 / static_cast<double>(std::max<std::size_t>(1, active_count));
    return pooled;
  }
  // SortPool: concatenate the top-k rows into [1, k*f]; zero-pad the tail.
  const auto selection = sortpool_selection(embeddings, active);
  if (selection_out != nullptr) *selection_out = selection;
  const std::size_t f = embeddings.cols();
  Matrix flat(1, config_.sortpool_k * f);
  for (std::size_t slot = 0; slot < selection.size(); ++slot) {
    for (std::size_t c = 0; c < f; ++c) {
      flat(0, slot * f + c) = embeddings(selection[slot], c);
    }
  }
  return flat;
}

Matrix GnnClassifier::scaled(const Matrix& raw_features) const {
  return scaler_.fitted() ? scaler_.transform(raw_features) : raw_features;
}

Matrix GnnClassifier::pool(const Matrix& embeddings,
                           std::size_t active_count) const {
  // Mean over the ACTIVE nodes: a subgraph's readout is driven by the
  // content of its surviving blocks, so masked-subgraph predictions do not
  // collapse toward the bias prior as nodes are pruned (DESIGN.md
  // decision 2).
  Matrix pooled = embeddings.col_sums();
  pooled *= 1.0 / static_cast<double>(std::max<std::size_t>(1, active_count));
  return pooled;
}

Matrix GnnClassifier::embed(const Acfg& graph) const {
  // Activity (self-loop policy) is judged on the RAW features: a pruned or
  // padded node has an all-zero raw row; scaling happens afterwards. The
  // edge-list normalization (ops.hpp) is bit-identical to the dense
  // reference, and its CSR is reused by every layer.
  const MaskedNormalizedAdjacency frozen(graph);
  Matrix out;
  embed_into(frozen.a_hat(), frozen.inv_sqrt_degree(), graph.features(), out);
  return out;
}

void GnnClassifier::embed_into(const CsrMatrix& a_hat,
                               const std::vector<double>& inv_sqrt,
                               const Matrix& raw_features, Matrix& out) const {
  if (a_hat.rows() != raw_features.rows() ||
      inv_sqrt.size() != raw_features.rows()) {
    throw std::invalid_argument(
        "GnnClassifier::embed_into: node count mismatch");
  }
  Workspace& workspace = Workspace::local();
  Workspace::Lease ping = workspace.acquire(0, 0);
  Workspace::Lease pong = workspace.acquire(0, 0);
  const Matrix* h = &raw_features;
  if (scaler_.fitted()) {
    scaler_.transform_into(raw_features, ping.get());
    h = &ping.get();
  }
  Matrix* scratch = &pong.get();
  Matrix* other = &ping.get();
  // Skip rows of inactive (pruned/isolated) nodes in every layer: their
  // final rows are zeroed below anyway, and live rows only see them
  // through exact-zero adjacency coefficients, so the skip is invisible.
  const double* row_live = inv_sqrt.data();
  for (std::size_t i = 0; i < gcn_layers_.size(); ++i) {
    Matrix& dst = (i + 1 == gcn_layers_.size()) ? out : *scratch;
    gcn_layers_[i].infer_into(a_hat, *h, dst, kernel_pool_, row_live);
    h = &dst;
    std::swap(scratch, other);
  }
  if (gcn_layers_.empty()) out = *h;
  // Inactive nodes would otherwise carry the bias constant ReLU(b) through
  // the stack; zero them so "pruned == padded == absent" holds exactly.
  for (std::size_t i = 0; i < out.rows(); ++i) {
    if (inv_sqrt[i] == 0.0) {
      for (std::size_t c = 0; c < out.cols(); ++c) out(i, c) = 0.0;
    }
  }
}

Matrix GnnClassifier::class_logits(const Matrix& embeddings,
                                   std::size_t active_count) const {
  if (active_count == 0) {
    for (std::size_t i = 0; i < embeddings.rows(); ++i) {
      for (std::size_t c = 0; c < embeddings.cols(); ++c) {
        if (embeddings(i, c) != 0.0) {
          ++active_count;
          break;
        }
      }
    }
  }
  // Cache-free dense readout.
  const Matrix pooled =
      readout_input(embeddings, active_count, nullptr, nullptr);
  Matrix logits = matmul(pooled, readout_->weight().value);
  for (std::size_t c = 0; c < logits.cols(); ++c) {
    logits(0, c) += readout_->bias().value(0, c);
  }
  return logits;
}

Prediction GnnClassifier::predict(const Acfg& graph) const {
  Prediction prediction;
  prediction.probabilities = softmax_rows(
      class_logits(embed(graph), count_active_nodes(graph)));
  prediction.predicted_class = argmax_rows(prediction.probabilities)[0];
  return prediction;
}

Matrix GnnClassifier::forward_cached(const std::vector<Edge>& edges,
                                     const Matrix& raw_features,
                                     const std::vector<double>* edge_weights) {
  // Activity (self-loop policy) is judged on the RAW features, as in embed.
  const MaskedNormalizedAdjacency normalized(edges, raw_features,
                                             edge_weights);
  cached_a_hat_ = normalized.a_hat();
  cached_inv_sqrt_ = normalized.inv_sqrt_degree();
  cached_edges_ = edges;
  cached_num_nodes_ = raw_features.rows();
  cached_active_.assign(cached_num_nodes_, 0);
  cached_active_count_ = 0;
  for (std::size_t i = 0; i < cached_num_nodes_; ++i) {
    if (cached_inv_sqrt_[i] > 0.0) {
      cached_active_[i] = 1;
      ++cached_active_count_;
    }
  }

  Matrix h = scaled(raw_features);
  for (GcnLayer& layer : gcn_layers_) {
    h = layer.forward(cached_a_hat_, h, kernel_pool_);
  }
  cached_embeddings_ = h;

  // Readout over the active rows only (inactive rows hold the propagated
  // bias constant and must not leak into the readout).
  const Matrix pooled = readout_input(h, cached_active_count_, &cached_active_,
                                      &cached_selection_);
  return readout_->forward(pooled);
}

GnnClassifier::BackwardResult GnnClassifier::backward_cached(
    const Matrix& grad_logits, bool want_adjacency_grad) {
  if (cached_num_nodes_ == 0) {
    throw std::logic_error("GnnClassifier::backward_cached before forward_cached");
  }
  const Matrix grad_pooled = readout_->backward(grad_logits);

  Matrix grad_h(cached_num_nodes_, config_.embedding_dim());
  if (config_.readout == ReadoutKind::MeanPool) {
    // pool backward: every ACTIVE row receives grad_pooled / active_count.
    const double inv_n = 1.0 / static_cast<double>(
                                   std::max<std::size_t>(1, cached_active_count_));
    for (std::size_t r = 0; r < grad_h.rows(); ++r) {
      if (!cached_active_[r]) continue;
      for (std::size_t c = 0; c < grad_h.cols(); ++c) {
        grad_h(r, c) = grad_pooled(0, c) * inv_n;
      }
    }
  } else {
    // SortPool backward: slot i routes to the selected node (the selection
    // permutation is treated as constant, the standard DGCNN convention).
    const std::size_t f = config_.embedding_dim();
    for (std::size_t slot = 0; slot < cached_selection_.size(); ++slot) {
      const std::size_t node = cached_selection_[slot];
      for (std::size_t c = 0; c < f; ++c) {
        grad_h(node, c) = grad_pooled(0, slot * f + c);
      }
    }
  }

  // G_sd and G_ds per edge, accumulated from 0.0 over the layers in
  // backward order.
  std::vector<double> grad_a_hat;
  if (want_adjacency_grad) grad_a_hat.assign(2 * cached_edges_.size(), 0.0);
  for (auto it = gcn_layers_.rbegin(); it != gcn_layers_.rend(); ++it) {
    grad_h = want_adjacency_grad
                 ? it->backward(grad_h, &cached_edges_, &grad_a_hat)
                 : it->backward(grad_h);
  }

  BackwardResult result;
  result.grad_scaled_features = grad_h;  // after the full layer chain
  if (want_adjacency_grad) {
    // Chain through A_hat_ij = c_i c_j (A_ij + A_ji + I_ij) with the
    // normalization coefficients treated as constants:
    //   dL/dA_ij = c_i c_j (G_ij + G_ji).
    result.grad_adjacency.resize(cached_edges_.size());
    for (std::size_t e = 0; e < cached_edges_.size(); ++e) {
      const Edge& edge = cached_edges_[e];
      const double c = cached_inv_sqrt_[edge.src] * cached_inv_sqrt_[edge.dst];
      result.grad_adjacency[e] = c * (grad_a_hat[2 * e] + grad_a_hat[2 * e + 1]);
    }
  }
  return result;
}

std::vector<Parameter*> GnnClassifier::parameters() {
  std::vector<Parameter*> params;
  for (GcnLayer& layer : gcn_layers_) {
    for (Parameter* p : layer.parameters()) params.push_back(p);
  }
  for (Parameter* p : readout_->parameters()) params.push_back(p);
  return params;
}

void GnnClassifier::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

void GnnClassifier::save(std::ostream& out) const {
  out.write(kCheckpointMagic, kMagicLen);
  write_u64(out, config_.feature_dim);
  write_u64(out, config_.gcn_dims.size());
  for (std::size_t dim : config_.gcn_dims) write_u64(out, dim);
  write_u64(out, config_.num_classes);
  write_u64(out, static_cast<std::uint64_t>(config_.readout));
  write_u64(out, config_.sortpool_k);
  write_u64(out, scaler_.fitted() ? 1 : 0);
  if (scaler_.fitted()) write_matrix(out, scaler_.to_matrix());
  auto& self = const_cast<GnnClassifier&>(*this);  // parameters() is non-const
  save_parameters(out, self.parameters());
}

GnnClassifier GnnClassifier::load(std::istream& in) {
  char magic[kMagicLen] = {};
  in.read(magic, kMagicLen);
  if (!in || std::string(magic, kMagicLen) != kCheckpointMagic) {
    throw SerializationError("not a GnnClassifier checkpoint");
  }
  GnnConfig config;
  config.feature_dim = read_u64(in);
  const std::uint64_t layer_count = read_u64(in);
  if (layer_count == 0 || layer_count > 64) {
    throw SerializationError("implausible GCN layer count");
  }
  config.gcn_dims.clear();
  for (std::uint64_t i = 0; i < layer_count; ++i) {
    config.gcn_dims.push_back(read_u64(in));
  }
  config.num_classes = read_u64(in);
  const std::uint64_t readout = read_u64(in);
  if (readout > 1) throw SerializationError("invalid readout kind");
  config.readout = static_cast<ReadoutKind>(readout);
  config.sortpool_k = read_u64(in);

  Rng rng(0);  // weights are immediately overwritten
  GnnClassifier model(config, rng);
  if (read_u64(in) == 1) {
    model.scaler_ = FeatureScaler::from_matrix(read_matrix(in));
  }
  load_parameters(in, model.parameters());
  return model;
}

GnnClassifier GnnClassifier::clone() const {
  std::stringstream buffer;
  save(buffer);
  return load(buffer);
}

void GnnClassifier::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SerializationError("cannot open '" + path + "' for writing");
  save(out);
}

GnnClassifier GnnClassifier::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SerializationError("cannot open '" + path + "' for reading");
  return load(in);
}

}  // namespace cfgx
