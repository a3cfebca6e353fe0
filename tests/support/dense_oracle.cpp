#include "support/dense_oracle.hpp"

#include <stdexcept>

#include "graph/ops.hpp"
#include "nn/loss.hpp"

namespace cfgx::oracle {

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

}  // namespace cfgx::oracle
