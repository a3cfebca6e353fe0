// The GNN malware classifier Phi = {Phi_e, Phi_c} of Section V-A.
//
//   Phi_e: feature scaling -> stacked GCN layers (paper: 1024/512/128;
//          default here: 64/48/32, CPU scale) -> node embeddings Z.
//   Phi_c: mean-pool over the graph's (fixed) node count -> dense layer ->
//          class logits over the 12 ACFG families.
//
// Phi_c pools over the ACTIVE nodes (nodes with an incident edge or a
// non-zero feature row): a masked subgraph's prediction is driven by the
// content of its surviving blocks, so Algorithm-2 pruning degrades the
// prediction through information loss, not through dilution toward the
// bias prior (DESIGN.md decision 2).
//
// Thread-safety: the const inference methods (embed, embed_into,
// class_logits, predict) do not mutate state and may run concurrently. The
// cached training path (forward_cached/backward_cached) is single-threaded;
// use clone() to hand each worker its own instance when explainers need
// gradients in parallel.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "gnn/gcn.hpp"
#include "graph/acfg.hpp"
#include "nn/layers.hpp"
#include "nn/matrix.hpp"

namespace cfgx {

// Phi_c readout family. MeanPool is the default reproduction; SortPool is
// the DGCNN-style readout of MAGIC (Yan et al., DSN'19), the classifier the
// paper actually explains: the top-k nodes by embedding magnitude are
// concatenated into a fixed-size vector before the dense layer. Having both
// lets the ablation bench demonstrate CFGExplainer's model-agnosticism.
enum class ReadoutKind : std::uint8_t { MeanPool = 0, SortPool = 1 };

struct GnnConfig {
  std::size_t feature_dim = kAcfgFeatureCount;
  std::vector<std::size_t> gcn_dims = {64, 48, 32};  // paper: {1024, 512, 128}
  std::size_t num_classes = kFamilyCount;
  ReadoutKind readout = ReadoutKind::MeanPool;
  std::size_t sortpool_k = 16;  // nodes kept by SortPool

  std::size_t embedding_dim() const { return gcn_dims.back(); }
};

struct Prediction {
  std::size_t predicted_class = 0;
  Matrix probabilities;  // [1, num_classes]
  double confidence() const { return probabilities(0, predicted_class); }
};

class ThreadPool;

class GnnClassifier {
 public:
  GnnClassifier(GnnConfig config, Rng& rng);

  const GnnConfig& config() const noexcept { return config_; }

  // Optional thread pool for the sparse/dense kernels inside embed() and
  // the cached training path. Row-partitioned work keeps results identical
  // to the serial run. Not owned; not copied by clone()/save(). The pool
  // may be the same one driving explain_batch_outcomes — a reentrant
  // parallel_for from a worker runs inline.
  void set_kernel_pool(ThreadPool* pool) noexcept { kernel_pool_ = pool; }
  ThreadPool* kernel_pool() const noexcept { return kernel_pool_; }

  void set_scaler(FeatureScaler scaler) { scaler_ = std::move(scaler); }
  const FeatureScaler& scaler() const noexcept { return scaler_; }

  // --- inference (const) ---

  // Node embeddings Z of a graph: normalizes its edge list straight into a
  // CSR (MaskedNormalizedAdjacency, no N x N densification) and applies the
  // scaler to the RAW features when fitted. Rows of inactive (pruned or
  // padded) nodes are zeroed so they contribute nothing downstream. Embed a
  // masked subgraph via embed(masked_subgraph(graph, kept)).
  Matrix embed(const Acfg& graph) const;

  // Destination-passing embed for callers that already hold the normalized
  // CSR adjacency and its d^{-1/2} vector (the incremental Algorithm-2
  // masking path rebuilds neither per iteration). Intermediates ping-pong
  // through Workspace scratch, so steady-state calls allocate nothing.
  // `out` must not alias `raw_features`; a node-count mismatch between
  // a_hat, inv_sqrt and raw_features throws std::invalid_argument. embed()
  // is this call on the graph's freshly normalized adjacency.
  void embed_into(const CsrMatrix& a_hat, const std::vector<double>& inv_sqrt,
                  const Matrix& raw_features, Matrix& out) const;

  // Class logits from embeddings: mean over the ACTIVE nodes + dense.
  // `active_count` is the number of active nodes (see
  // count_active_nodes); pass 0 to infer it as the number of non-zero
  // embedding rows (exact whenever embed() produced the matrix).
  Matrix class_logits(const Matrix& embeddings,
                      std::size_t active_count = 0) const;

  // Class probabilities of a graph: class_logits(embed(graph)) over
  // count_active_nodes(graph). Predict a masked subgraph via
  // predict(masked_subgraph(graph, kept)).
  Prediction predict(const Acfg& graph) const;

  // --- cached training / gradient path ---

  // Forward with caches over an edge list and RAW features (one row per
  // node): the edges are normalized straight into a CSR exactly as
  // embed() does (MaskedNormalizedAdjacency), never densified. With
  // `edge_weights` (one non-negative weight per edge) edge e weighs
  // (*edge_weights)[e] instead of Edge::weight(), the last edge of a
  // repeated (src, dst) pair setting the pair's weight — the explainers'
  // gated masks. Returns logits [1, num_classes].
  Matrix forward_cached(const std::vector<Edge>& edges,
                        const Matrix& raw_features,
                        const std::vector<double>* edge_weights = nullptr);

  struct BackwardResult {
    // dLoss/dA_sd per edge e = (s, d) of the forward_cached edge list,
    // degrees held constant (DESIGN.md decisions 4 and 18): with the
    // normalization coefficients c = d^{-1/2} and G = dLoss/dA_hat,
    //   grad_adjacency[e] = c_s c_d (G_sd + G_ds).
    // Edges of one repeated pair read the same value. Empty unless
    // backward_cached was asked for it.
    std::vector<double> grad_adjacency;
    // dLoss/dX_scaled: gradient w.r.t. the (scaler-transformed) input
    // features — always produced (it falls out of the layer chain). Chain
    // through the scaler via dX_raw = dX_scaled / stddev when needed.
    Matrix grad_scaled_features;
  };

  // Backward from dLoss/dLogits. Accumulates parameter gradients; when
  // want_adjacency_grad is set, also returns the per-edge dLoss/dA above.
  BackwardResult backward_cached(const Matrix& grad_logits,
                                 bool want_adjacency_grad = false);

  std::vector<Parameter*> parameters();
  void zero_grad();

  // Deep copy (weights + scaler); used for per-thread explainer instances.
  GnnClassifier clone() const;

  // Checkpointing: weights + scaler + config dims.
  void save(std::ostream& out) const;
  static GnnClassifier load(std::istream& in);
  void save_file(const std::string& path) const;
  static GnnClassifier load_file(const std::string& path);

 private:
  GnnClassifier() = default;  // for load()/clone()

  Matrix scaled(const Matrix& raw_features) const;
  Matrix pool(const Matrix& embeddings, std::size_t active_count) const;
  // SortPool selection: active node indices ordered by descending embedding
  // row sum (ties by index), truncated to sortpool_k.
  std::vector<std::size_t> sortpool_selection(
      const Matrix& embeddings, const std::vector<char>* active) const;
  Matrix readout_input(const Matrix& embeddings, std::size_t active_count,
                       const std::vector<char>* active,
                       std::vector<std::size_t>* selection_out) const;

  GnnConfig config_;
  FeatureScaler scaler_;
  std::vector<GcnLayer> gcn_layers_;
  std::unique_ptr<Dense> readout_;

  ThreadPool* kernel_pool_ = nullptr;

  // Training caches. The adjacency is cached in CSR form: every backward
  // kernel that consumes it is sparse.
  CsrMatrix cached_a_hat_;
  std::vector<double> cached_inv_sqrt_;  // c_i = d_i^{-1/2} for the dA chain
  std::vector<Edge> cached_edges_;
  Matrix cached_embeddings_;
  std::vector<std::size_t> cached_selection_;  // SortPool permutation
  std::vector<char> cached_active_;
  std::size_t cached_active_count_ = 0;
  std::size_t cached_num_nodes_ = 0;
};

}  // namespace cfgx
