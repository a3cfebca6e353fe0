// Graph-matrix operations shared by the GNN and every explainer:
// adjacency normalization, the node-masking semantics of the paper's
// Algorithm 2, and subgraph extraction.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/acfg.hpp"
#include "nn/matrix.hpp"
#include "nn/sparse.hpp"

namespace cfgx {

// GCN propagation matrix A_hat = D^{-1/2} (S + I) D^{-1/2}, normalized
// straight from the edge list into a CSR, where S = A + A^T symmetrizes
// the directed weighted adjacency (call edges keep their weight 2) and D
// is the degree of (S + I). Every production consumer — inference,
// Algorithm 2, GNN training and the gradient explainers — uses this one
// representation; the dense N x N form survives only as the test oracle
// (tests/support/dense_oracle.*), and the values here are bit-identical
// to it.
//
// Self-loop policy ("pruned == padded", DESIGN.md decision 3): a node
// receives its self-loop when it is *active* — it has an incident edge of
// non-zero weight or a non-zero feature row. A pruned or padded node (no
// edges AND zero features) gets no self-loop and contributes nothing; a
// surviving node whose neighbours were all pruned keeps its self-loop, so
// its block features still reach the readout — matching the paper's
// fixed-N padded GCN, where every real node carries a self-loop even if
// the explainer disconnected it.
//
// The matrix is also incrementally maskable for the Algorithm-2 pruning
// loop: each prune() + refresh() costs O(edges incident to the touched
// nodes) instead of re-normalizing the whole graph per iteration.
//
// The CSR structure is frozen at construction: every (src, dst) pair of
// the edge list in both orientations plus the full diagonal (the
// self-loop slot).
// Pruning zeroes *values* in place — structural entries holding 0.0
// contribute nothing against finite operands (an accumulator seeded at
// +0.0 never holds -0.0, so adding a +/-0.0 product leaves it unchanged),
// so spmm and spmm_transpose_a over this matrix are bit-identical to the
// same kernels over the zero-free CSR of the dense reference (see the
// structural-zero discussion in nn/sparse.hpp).
//
// Bit-identity with the dense reference is maintained by recomputation,
// never by algebraic updates: degrees of touched nodes are RE-SUMMED over
// their row in column order (FP addition is not invertible, so subtracting
// a pruned edge's weight would drift), the self-loop enters the sum as the
// single add `s_ii + 1.0` the dense path performs, and every normalized
// value uses the dense association v = s * (c_i * c_j). Requires
// non-negative edge weights (true for ACFGs; needed so zero entries can be
// skipped in degree sums without disturbing signed-zero accumulation).
class MaskedNormalizedAdjacency {
 public:
  // O(E log E) construction straight from an edge list over
  // features.rows() nodes; an endpoint out of range (or an edge_weights
  // size mismatch) throws std::invalid_argument. Symmetrized values use
  // the dense operand order A(i,j) + A(j,i), and degree sums walk the
  // structural entries in ascending column order — exact versus the dense
  // full-row sum because every skipped entry is a true zero and all
  // weights are non-negative. This is what makes paper-scale graphs
  // (N = 7352) affordable: nothing is ever densified.
  //
  // A(i,j) of a repeated (src, dst) pair follows one of two rules:
  //   * no edge_weights: Edge::weight(), a Call edge dominating a
  //     coincident Flow edge (the paper's single-valued A in {0,1,2});
  //   * edge_weights (one non-negative weight per edge, the explainers'
  //     gated masks): edge e weighs (*edge_weights)[e], and the LAST edge
  //     in list order sets the pair's weight. A pair whose weight is
  //     exactly 0.0 stays a structural zero and makes no node active.
  //
  // `features` participates in the activity test (self-loop policy above).
  MaskedNormalizedAdjacency(const std::vector<Edge>& edges,
                            const Matrix& features,
                            const std::vector<double>* edge_weights = nullptr);

  // The graph's own edge list and features.
  explicit MaskedNormalizedAdjacency(const Acfg& graph);

  // Marks `node` pruned: zeroes its symmetrized edge weights (both
  // orientations) and its feature-activity bit, and queues the node and
  // its structural neighbours for renormalization. No-op if already pruned.
  // Call refresh() before reading a_hat()/inv_sqrt_degree().
  void prune(std::uint32_t node);

  // Recomputes activity, degree, d^{-1/2} and normalized values for every
  // node touched since the last refresh. Cost tracks surviving edges.
  void refresh();

  const CsrMatrix& a_hat() const noexcept { return a_hat_; }
  const std::vector<double>& inv_sqrt_degree() const noexcept {
    return inv_sqrt_;
  }
  bool alive(std::uint32_t node) const { return alive_.at(node) != 0; }
  std::size_t num_nodes() const noexcept { return alive_.size(); }
  // Nodes queued for the next refresh() (exposed for tests/metrics).
  std::size_t pending_dirty() const noexcept { return dirty_.size(); }

 private:
  void mark_dirty(std::uint32_t node);

  CsrMatrix a_hat_;
  // Symmetrized weights A_ij + A_ji parallel to a_hat_'s values; the
  // diagonal slot stores 2*A_ii WITHOUT the self-loop (activity decides the
  // +1.0 at refresh time). Zeroed, never rebuilt, as nodes are pruned.
  std::vector<double> s_edge_;
  std::vector<std::size_t> mirror_;    // index of the transposed entry
  std::vector<char> alive_;
  std::vector<char> feature_active_;  // non-zero feature row AND alive
  std::vector<char> active_;          // self-loop policy flag
  std::vector<double> degree_;
  std::vector<double> inv_sqrt_;
  std::vector<std::uint32_t> dirty_;
  std::vector<char> is_dirty_;
};

// Number of *active* nodes under the self-loop policy above: nodes with an
// incident edge or a non-zero feature row. Pruned and padded nodes are
// inactive. The classifier's readout pools over this count. O(N + E).
std::size_t count_active_nodes(const Acfg& graph);

// The graph with every node NOT in `kept` masked out: same node count,
// only edges with BOTH endpoints kept (input order preserved), feature rows
// of dropped nodes zeroed (Algorithm 2 lines 17-18 plus the feature zeroing
// of DESIGN decision 3), label/family carried over. Shapes are preserved
// (masked, not compacted), matching the paper's fixed input-size
// evaluation of subgraphs. O(N·F + E); throws on an out-of-range kept id.
Acfg masked_subgraph(const Acfg& graph, const std::vector<std::uint32_t>& kept);

// Given node scores (higher = more important) over `num_nodes` real nodes,
// returns the indices of the `k` top-scoring nodes (ties broken by lower
// index for determinism).
std::vector<std::uint32_t> top_k_nodes(const std::vector<double>& scores,
                                       std::size_t k);

// ceil(fraction * num_nodes), clamped to [1, num_nodes] for num_nodes > 0.
std::size_t nodes_for_fraction(std::uint32_t num_nodes, double fraction);

}  // namespace cfgx
