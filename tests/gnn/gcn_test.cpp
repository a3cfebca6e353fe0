#include "gnn/gcn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "graph/ops.hpp"
#include "nn/gradcheck.hpp"
#include "nn/sparse.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

// Ring backbone keeps every node active: an isolated node would sit at
// the ReLU kink (preactivation exactly 0 with zero bias), where finite
// differences are undefined.
std::vector<Edge> random_edges(std::size_t n, Rng& rng) {
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < n; ++i) {
    edges.push_back({i, static_cast<std::uint32_t>((i + 1) % n), EdgeKind::Flow});
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.3) && j != (i + 1) % n) {
        edges.push_back({i, j, EdgeKind::Flow});
      }
    }
  }
  return edges;
}

CsrMatrix normalized(const std::vector<Edge>& edges, std::size_t n) {
  return MaskedNormalizedAdjacency(edges, Matrix(n, 1)).a_hat();
}

CsrMatrix random_a_hat(std::size_t n, Rng& rng) {
  return normalized(random_edges(n, rng), n);
}

Matrix infer(const GcnLayer& layer, const CsrMatrix& a_hat, const Matrix& h,
             ThreadPool* pool = nullptr) {
  Matrix out;
  layer.infer_into(a_hat, h, out, pool);
  return out;
}

// Dense reference layer: ReLU(A_hat (H W) + b) with the dense kernels.
Matrix dense_infer(GcnLayer& layer, const Matrix& a_hat, const Matrix& h) {
  Matrix out = matmul(a_hat, matmul(h, layer.parameters()[0]->value));
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) += layer.parameters()[1]->value(0, c);
      if (out(r, c) < 0.0) out(r, c) = 0.0;
    }
  }
  return out;
}

double scalarize(const Matrix& out, const Matrix& w) {
  double acc = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) acc += out.data()[i] * w.data()[i];
  return acc;
}

// Central difference of f w.r.t. the dense A_hat entry (i, j); the entry
// must be non-zero so the perturbed CSR keeps its structure.
double numeric_entry_gradient(Matrix a_hat, std::size_t i, std::size_t j,
                              const std::function<double(const CsrMatrix&)>& f,
                              double eps = 1e-6) {
  const double original = a_hat(i, j);
  a_hat(i, j) = original + eps;
  const double up = f(CsrMatrix::from_dense(a_hat));
  a_hat(i, j) = original - eps;
  const double down = f(CsrMatrix::from_dense(a_hat));
  return (up - down) / (2.0 * eps);
}

double relative_error(double analytic, double numeric) {
  return std::abs(analytic - numeric) /
         std::max({std::abs(analytic), std::abs(numeric), 1e-8});
}

TEST(GcnLayerTest, InferMatchesForward) {
  Rng rng(1);
  GcnLayer layer(4, 3, rng);
  const CsrMatrix a_hat = random_a_hat(5, rng);
  const Matrix h = random_matrix(5, 4, rng);
  EXPECT_EQ(infer(layer, a_hat, h), layer.forward(a_hat, h));
}

TEST(GcnLayerTest, OutputIsNonNegative) {
  Rng rng(2);
  GcnLayer layer(4, 6, rng);
  const Matrix out = layer.forward(random_a_hat(7, rng), random_matrix(7, 4, rng));
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_GE(out.data()[i], 0.0);
}

TEST(GcnLayerTest, IsolatedNodeRowProducesBiasOnlyOutput) {
  Rng rng(3);
  GcnLayer layer(2, 2, rng);
  Matrix a_hat(3, 3);          // node 2 fully masked (zero row/col)
  a_hat(0, 0) = a_hat(1, 1) = 0.5;
  a_hat(0, 1) = a_hat(1, 0) = 0.5;
  const Matrix h = random_matrix(3, 2, rng);
  const Matrix out = layer.forward(CsrMatrix::from_dense(a_hat), h);
  // Row 2: ReLU(0 + b).
  for (std::size_t c = 0; c < 2; ++c) {
    const double expected = std::max(0.0, layer.parameters()[1]->value(0, c));
    EXPECT_NEAR(out(2, c), expected, 1e-12);
  }
}

TEST(GcnLayerTest, InputGradientMatchesNumeric) {
  Rng rng(4);
  GcnLayer layer(3, 4, rng);
  const CsrMatrix a_hat = random_a_hat(5, rng);
  Matrix h = random_matrix(5, 3, rng);
  const Matrix w = random_matrix(5, 4, rng);

  layer.zero_grad();
  layer.forward(a_hat, h);
  const Matrix analytic = layer.backward(w);
  const auto result = check_gradient_against(
      h, analytic, [&] { return scalarize(infer(layer, a_hat, h), w); });
  EXPECT_TRUE(result.passed(1e-5)) << result.max_rel_error;
}

TEST(GcnLayerTest, WeightGradientsMatchNumeric) {
  Rng rng(5);
  GcnLayer layer(3, 2, rng);
  const CsrMatrix a_hat = random_a_hat(4, rng);
  const Matrix h = random_matrix(4, 3, rng);
  const Matrix w = random_matrix(4, 2, rng);

  layer.zero_grad();
  layer.forward(a_hat, h);
  layer.backward(w);

  for (Parameter* param : layer.parameters()) {
    const Matrix analytic = param->grad;
    const auto result = check_gradient_against(
        param->value, analytic,
        [&] { return scalarize(infer(layer, a_hat, h), w); });
    EXPECT_TRUE(result.passed(1e-5))
        << param->name << " rel err " << result.max_rel_error;
  }
}

// The per-edge adjacency gradient: both A_hat entries an edge feeds (and a
// self-loop's diagonal entry) against central differences of the layer.
TEST(GcnLayerTest, AdjacencyGradientMatchesNumeric) {
  Rng rng(6);
  GcnLayer layer(3, 2, rng);
  std::vector<Edge> edges = random_edges(4, rng);
  edges.push_back({2, 2, EdgeKind::Call});
  const CsrMatrix a_hat = normalized(edges, 4);
  const Matrix h = random_matrix(4, 3, rng);
  const Matrix w = random_matrix(4, 2, rng);

  layer.zero_grad();
  layer.forward(a_hat, h);
  std::vector<double> grad_edges(2 * edges.size(), 0.0);
  layer.backward(w, &edges, &grad_edges);

  const auto loss_of = [&](const CsrMatrix& a) {
    return scalarize(infer(layer, a, h), w);
  };
  const Matrix dense = a_hat.to_dense();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const Edge& edge = edges[e];
    EXPECT_LE(relative_error(grad_edges[2 * e],
                             numeric_entry_gradient(dense, edge.src, edge.dst,
                                                    loss_of)),
              1e-5)
        << "edge " << e << " (src, dst)";
    EXPECT_LE(relative_error(grad_edges[2 * e + 1],
                             numeric_entry_gradient(dense, edge.dst, edge.src,
                                                    loss_of)),
              1e-5)
        << "edge " << e << " (dst, src)";
  }
}

TEST(GcnLayerTest, GradientsAccumulate) {
  Rng rng(7);
  GcnLayer layer(2, 2, rng);
  const CsrMatrix a_hat = random_a_hat(3, rng);
  const Matrix h = random_matrix(3, 2, rng);
  const Matrix w(3, 2, 1.0);

  layer.zero_grad();
  layer.forward(a_hat, h);
  layer.backward(w);
  const Matrix once = layer.parameters()[0]->grad;
  layer.forward(a_hat, h);
  layer.backward(w);
  EXPECT_TRUE(approx_equal(layer.parameters()[0]->grad, once * 2.0, 1e-10));
}

// --- CSR path vs the dense matrix reference ---

TEST(GcnLayerCsrTest, InferMatchesDenseReference) {
  Rng rng(20);
  GcnLayer layer(4, 3, rng);
  const CsrMatrix a_csr = random_a_hat(6, rng);
  const Matrix h = random_matrix(6, 4, rng);
  EXPECT_TRUE(approx_equal(infer(layer, a_csr, h),
                           dense_infer(layer, a_csr.to_dense(), h), 1e-12));
}

TEST(GcnLayerCsrTest, InferWithPoolMatchesDenseReference) {
  Rng rng(21);
  ThreadPool pool(4);
  GcnLayer layer(4, 5, rng);
  const CsrMatrix a_csr = random_a_hat(32, rng);
  const Matrix h = random_matrix(32, 4, rng);
  EXPECT_EQ(infer(layer, a_csr, h, &pool), infer(layer, a_csr, h));
  EXPECT_TRUE(approx_equal(infer(layer, a_csr, h, &pool),
                           dense_infer(layer, a_csr.to_dense(), h), 1e-12));
}

TEST(GcnLayerCsrTest, ForwardBackwardMatchesDensePath) {
  Rng rng(22);
  GcnLayer layer(3, 4, rng);

  Rng data_rng(23);
  const std::vector<Edge> edges = random_edges(7, data_rng);
  const CsrMatrix a_csr = normalized(edges, 7);
  const Matrix a_hat = a_csr.to_dense();
  const Matrix h = random_matrix(7, 3, data_rng);
  const Matrix w = random_matrix(7, 4, data_rng);

  const Matrix out = layer.forward(a_csr, h);
  EXPECT_TRUE(approx_equal(out, dense_infer(layer, a_hat, h), 1e-12));

  layer.zero_grad();
  std::vector<double> grad_edges(2 * edges.size(), 0.0);
  const Matrix grad_h = layer.backward(w, &edges, &grad_edges);

  // Dense backward: dP = dZ .* 1[P > 0]; d(HW) = A^T dP; dA = dP (HW)^T.
  const Matrix& weight = layer.parameters()[0]->value;
  const Matrix hw = matmul(h, weight);
  Matrix pre = matmul(a_hat, hw);
  Matrix grad_pre = w;
  for (std::size_t r = 0; r < pre.rows(); ++r) {
    for (std::size_t c = 0; c < pre.cols(); ++c) {
      if (pre(r, c) + layer.parameters()[1]->value(0, c) <= 0.0) {
        grad_pre(r, c) = 0.0;
      }
    }
  }
  const Matrix grad_hw = matmul_transpose_a(a_hat, grad_pre);
  EXPECT_TRUE(approx_equal(grad_h, matmul_transpose_b(grad_hw, weight), 1e-12));
  EXPECT_TRUE(approx_equal(layer.parameters()[0]->grad,
                           matmul_transpose_a(h, grad_hw), 1e-12));
  EXPECT_TRUE(
      approx_equal(layer.parameters()[1]->grad, grad_pre.col_sums(), 1e-12));
  const Matrix grad_a = matmul_transpose_b(grad_pre, hw);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    EXPECT_NEAR(grad_edges[2 * e], grad_a(edges[e].src, edges[e].dst), 1e-12);
    EXPECT_NEAR(grad_edges[2 * e + 1], grad_a(edges[e].dst, edges[e].src),
                1e-12);
  }
}

// Gradcheck straight through the CSR-backed layer: the analytic gradients
// of the sparse kernels against central finite differences of the sparse
// forward itself (not just agreement with the dense path).
TEST(GcnLayerCsrTest, GradientsMatchNumericThroughCsrPath) {
  Rng rng(24);
  GcnLayer layer(3, 4, rng);
  const CsrMatrix a_csr = random_a_hat(5, rng);
  Matrix h = random_matrix(5, 3, rng);
  const Matrix w = random_matrix(5, 4, rng);

  layer.zero_grad();
  layer.forward(a_csr, h);
  const Matrix analytic = layer.backward(w);
  const auto input_check = check_gradient_against(
      h, analytic, [&] { return scalarize(infer(layer, a_csr, h), w); });
  EXPECT_TRUE(input_check.passed(1e-5)) << input_check.max_rel_error;

  for (Parameter* param : layer.parameters()) {
    const auto param_check = check_gradient_against(
        param->value, param->grad,
        [&] { return scalarize(infer(layer, a_csr, h), w); });
    EXPECT_TRUE(param_check.passed(1e-5))
        << param->name << " rel err " << param_check.max_rel_error;
  }
}

TEST(GcnLayerTest, DimensionsExposed) {
  Rng rng(8);
  GcnLayer layer(12, 64, rng);
  EXPECT_EQ(layer.in_features(), 12u);
  EXPECT_EQ(layer.out_features(), 64u);
}

}  // namespace
}  // namespace cfgx
