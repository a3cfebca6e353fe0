// The interpretation stage of CFGExplainer (paper Algorithm 2).
//
// Iteratively prunes the graph: at each step the current (masked) graph is
// re-embedded by the frozen GNN, its surviving nodes are re-scored by
// Theta_s, and the lowest-scoring ones are masked out (adjacency row+column
// and feature row zeroed — DESIGN.md decision 3). The removal order,
// reversed, is the node importance ranking; the retained node sets,
// reversed, are the subgraph sequence from smallest (top step_size% nodes)
// to the full graph. masked_subgraph(graph, subgraph_nodes[k]) rebuilds any
// one of them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/explainer_model.hpp"
#include "gnn/classifier.hpp"
#include "graph/acfg.hpp"

namespace cfgx {

struct InterpretationConfig {
  // Percentage of the graph pruned per iteration; must divide 100
  // (Algorithm 2 precondition: 100 % step_size == 0).
  unsigned step_size_percent = 10;
};

struct Interpretation {
  // All nodes, most important first (V_ordered reversed, line 19).
  std::vector<std::uint32_t> ordered_nodes;
  // Kept-node sets per retained size: subgraph_nodes[k] holds the nodes of
  // the subgraph with (k+1)*step_size% of the graph; the last entry is the
  // full node set.
  std::vector<std::vector<std::uint32_t>> subgraph_nodes;
  unsigned step_size_percent = 10;
};

// One iteration's victims (Algorithm 2 lines 8-18): the `n_step` nodes of
// `remaining` that repeated "remove the lowest-scoring survivor" picks, in
// removal order. scores(v, 0) is node v's score and `remaining` must be in
// ascending index order. Scores are fixed within an iteration, so this is
// one stable sort of `remaining` by score with NaN keyed as +inf: ties go
// to the lower index, NaN never beats a finite score, and once only NaN or
// +inf scores remain they go in index order (DESIGN.md decision 17).
// Throws std::invalid_argument when n_step > remaining.size().
std::vector<std::uint32_t> select_victims(
    std::span<const std::uint32_t> remaining, const Matrix& scores,
    std::size_t n_step);

class Interpreter {
 public:
  // Both references are borrowed; the caller keeps them alive. `model`
  // must be trained (Algorithm 1) against `gnn`'s embeddings. Both are
  // only read, so one model pair may serve many threads at once.
  Interpreter(const ExplainerModel& model, const GnnClassifier& gnn)
      : model_(&model), gnn_(&gnn) {}

  Interpretation interpret(const Acfg& graph,
                           const InterpretationConfig& config = {}) const;

 private:
  const ExplainerModel* model_;
  const GnnClassifier* gnn_;
};

}  // namespace cfgx
