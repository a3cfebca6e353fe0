// Graph Convolutional Network layer (Kipf & Welling style), the building
// block of the paper's embedding component Phi_e (three GCN layers with
// ReLU activations, Section V-A).
//
// Forward: Z = ReLU(A_hat * H * W + b), with A_hat the normalized adjacency
// from graph/ops.hpp.
//
// Two execution paths, both over A_hat in CSR form (CFG adjacencies are
// >95% zeros; the dense N x N form exists only as the test oracle):
//   * infer_into(...) const — cache-free, safe to call concurrently
//   * forward(...)/backward — cached training path; backward can also
//     return dLoss/dA_hat on the entries an edge list feeds, which
//     GNNExplainer and PGExplainer need to optimize edge masks through the
//     GNN.
//
// Both take an optional ThreadPool whose workers split the output rows;
// results are identical to the serial run to the last bit.
#pragma once

#include <string>
#include <vector>

#include "graph/acfg.hpp"
#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "nn/sparse.hpp"

namespace cfgx {

class ThreadPool;

class GcnLayer {
 public:
  GcnLayer(std::size_t in_features, std::size_t out_features, Rng& rng,
           std::string name = "gcn");

  std::size_t in_features() const { return weight_.value.rows(); }
  std::size_t out_features() const { return weight_.value.cols(); }

  // Cache-free inference: writes ReLU(A_hat H W + b) into `out`
  // (reshaped, capacity-reusing) with the H*W intermediate held in a
  // Workspace scratch buffer — zero allocations in steady state. `out`
  // must not alias `h`. Bit-identical to forward().
  //
  // `row_live` (optional, length = rows) skips every row i with
  // row_live[i] == 0.0 — the row stays exactly zero instead of carrying
  // ReLU(b). Live rows are unaffected: a masked node's values only reach
  // them through adjacency coefficients that are exactly 0.0, and an
  // accumulator seeded at +0.0 is unchanged by +/-0.0 terms.
  void infer_into(const CsrMatrix& a_hat, const Matrix& h, Matrix& out,
                  ThreadPool* pool = nullptr,
                  const double* row_live = nullptr) const;

  // Cached training forward. Keeps a pointer to `a_hat`, not a copy, so
  // backward() runs the sparse kernels on the same CSR: `a_hat` must
  // outlive the backward() that follows this forward().
  Matrix forward(const CsrMatrix& a_hat, const Matrix& h,
                 ThreadPool* pool = nullptr);

  // Backward from dLoss/dZ. Accumulates dW, db; returns dLoss/dH.
  // When `edges` is given, also accumulates into `grad_edges` (caller-
  // sized to 2 per edge) the two entries of dLoss/dA_hat = dP (HW)^T that
  // edge e = (s, d) feeds, with dP = dLoss/d(preactivation):
  //   grad_edges[2e]     += dP_s . HW_d
  //   grad_edges[2e + 1] += dP_d . HW_s
  // each dot product summed over ascending k from 0.0 — the values the
  // full N x N product would hold, without ever forming it.
  Matrix backward(const Matrix& grad_output,
                  const std::vector<Edge>* edges = nullptr,
                  std::vector<double>* grad_edges = nullptr);

  std::vector<Parameter*> parameters() { return {&weight_, &bias_}; }
  void zero_grad() {
    weight_.zero_grad();
    bias_.zero_grad();
  }

 private:
  Parameter weight_;
  Parameter bias_;
  // Caches for backward; the adjacency is borrowed from forward()'s caller.
  const CsrMatrix* cached_a_hat_ = nullptr;
  ThreadPool* cached_pool_ = nullptr;
  Matrix cached_h_;
  Matrix cached_hw_;             // H * W
  Matrix cached_preactivation_;  // A_hat * H * W + b
};

}  // namespace cfgx
