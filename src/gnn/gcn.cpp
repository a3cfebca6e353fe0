#include "gnn/gcn.hpp"

#include <stdexcept>

#include "nn/workspace.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

void add_bias_rows_inplace(Matrix& m, const Matrix& bias) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) += bias(0, c);
  }
}

// Note: clamps strictly negative values only — keeps -0.0 and NaN as-is,
// unlike std::max(0.0, x). The layer tests pin this behaviour.
void relu_inplace(Matrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m.data()[i] < 0.0) m.data()[i] = 0.0;
  }
}

Matrix relu(Matrix m) {
  relu_inplace(m);
  return m;
}

}  // namespace

GcnLayer::GcnLayer(std::size_t in_features, std::size_t out_features, Rng& rng,
                   std::string name)
    : weight_(name + ".W", glorot_uniform(in_features, out_features, rng)),
      bias_(name + ".b", Matrix(1, out_features)) {}

void GcnLayer::infer_into(const CsrMatrix& a_hat, const Matrix& h, Matrix& out,
                          ThreadPool* pool, const double* row_live) const {
  Workspace::Lease hw = Workspace::local().acquire(h.rows(), out_features());
  matmul_into(h, weight_.value, hw.get(), row_live);
  spmm_into(a_hat, hw.get(), out, pool, row_live);
  if (row_live == nullptr) {
    add_bias_rows_inplace(out, bias_.value);
    relu_inplace(out);
    return;
  }
  for (std::size_t r = 0; r < out.rows(); ++r) {
    if (row_live[r] == 0.0) continue;  // masked rows stay exactly zero
    double* row = out.data() + r * out.cols();
    for (std::size_t c = 0; c < out.cols(); ++c) {
      row[c] += bias_.value(0, c);
      if (row[c] < 0.0) row[c] = 0.0;  // same clamp as relu_inplace
    }
  }
}

Matrix GcnLayer::forward(const CsrMatrix& a_hat, const Matrix& h,
                         ThreadPool* pool) {
  cached_a_hat_ = &a_hat;
  cached_pool_ = pool;
  cached_h_ = h;
  matmul_into(h, weight_.value, cached_hw_);
  spmm_into(a_hat, cached_hw_, cached_preactivation_, pool);
  add_bias_rows_inplace(cached_preactivation_, bias_.value);
  return relu(cached_preactivation_);
}

Matrix GcnLayer::backward(const Matrix& grad_output,
                          const std::vector<Edge>* edges,
                          std::vector<double>* grad_edges) {
  if (cached_a_hat_ == nullptr) {
    throw std::logic_error("GcnLayer::backward before forward");
  }
  // dP = dZ .* 1[P > 0]
  Matrix grad_pre = grad_output;
  for (std::size_t i = 0; i < grad_pre.size(); ++i) {
    if (cached_preactivation_.data()[i] <= 0.0) grad_pre.data()[i] = 0.0;
  }

  bias_.grad += grad_pre.col_sums();

  // d(HW) = A_hat^T dP;  dW = H^T d(HW);  dH = d(HW) W^T;  dA = dP (HW)^T.
  // Gradients accumulate (+=) into Parameter::grad, so products that feed an
  // accumulation are computed into workspace scratch first.
  Workspace& workspace = Workspace::local();
  Workspace::Lease grad_hw = workspace.acquire(0, 0);
  spmm_transpose_a_into(*cached_a_hat_, grad_pre, grad_hw.get(), cached_pool_);
  Workspace::Lease scratch = workspace.acquire(0, 0);
  matmul_transpose_a_into(cached_h_, grad_hw.get(), scratch.get());
  weight_.grad += scratch.get();
  if (edges != nullptr) {
    // Only the dA entries an edge's weight feeds: 2 dot products per edge.
    const std::size_t width = grad_pre.cols();
    const auto dot = [&](std::uint32_t i, std::uint32_t j) {
      const double* dp_row = grad_pre.data() + i * width;
      const double* hw_row = cached_hw_.data() + j * width;
      double acc = 0.0;
      for (std::size_t k = 0; k < width; ++k) acc += dp_row[k] * hw_row[k];
      return acc;
    };
    for (std::size_t e = 0; e < edges->size(); ++e) {
      const Edge& edge = (*edges)[e];
      (*grad_edges)[2 * e] += dot(edge.src, edge.dst);
      (*grad_edges)[2 * e + 1] += dot(edge.dst, edge.src);
    }
  }
  return matmul_transpose_b(grad_hw.get(), weight_.value);
}

}  // namespace cfgx
