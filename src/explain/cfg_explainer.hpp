// Adapter exposing the paper's CFGExplainer (src/core) through the common
// Explainer interface used by the comparison harness.
#pragma once

#include <memory>
#include <optional>

#include "core/explainer_model.hpp"
#include "core/interpreter.hpp"
#include "core/trainer.hpp"
#include "explain/explainer_api.hpp"
#include "gnn/classifier.hpp"

namespace cfgx {

class CfgExplainer : public Explainer {
 public:
  // `gnn` is borrowed and must outlive the explainer.
  CfgExplainer(const GnnClassifier& gnn, ExplainerTrainConfig train_config = {},
               InterpretationConfig interpret_config = {},
               std::uint64_t init_seed = 99);

  std::string name() const override { return "CFGExplainer"; }

  // Runs Algorithm 1 (joint training of Theta_s + Theta_c).
  void fit(const Corpus& corpus,
           const std::vector<std::size_t>& train_indices) override;

  // Runs Algorithm 2 and returns the importance ordering.
  NodeRanking explain(const Acfg& graph) override;

  bool fitted() const noexcept { return fitted_; }
  ExplainerModel& model() { return model_; }
  const ExplainerTrainResult& train_result() const { return train_result_; }

  // Checkpointing of the trained Theta (bench artifact cache).
  void save_model_file(const std::string& path) const { model_.save_file(path); }
  void load_model_file(const std::string& path);  // marks the explainer fitted

  // In-memory counterpart of load_model_file: adopts an already-trained
  // Theta and marks the explainer fitted. The serving engine's per-worker
  // explainer factories clone one trained model this way instead of
  // re-reading a checkpoint per worker. Validates dims against the GNN.
  void set_model(ExplainerModel model);

  // Full Algorithm-2 output (subgraph node sets / adjacencies) for callers
  // that need more than the ranking (Table V qualitative analysis).
  Interpretation interpret(const Acfg& graph) const;

 private:
  const GnnClassifier* gnn_;
  ExplainerModel model_;
  ExplainerTrainConfig train_config_;
  InterpretationConfig interpret_config_;
  ExplainerTrainResult train_result_;
  bool fitted_ = false;
};

}  // namespace cfgx
