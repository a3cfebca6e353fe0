// Adapter exposing the paper's CFGExplainer (src/core) through the common
// Explainer interface used by the comparison harness.
#pragma once

#include <memory>

#include "core/explainer_model.hpp"
#include "core/interpreter.hpp"
#include "core/trainer.hpp"
#include "explain/explainer_api.hpp"
#include "gnn/classifier.hpp"

namespace cfgx {

class CfgExplainer : public Explainer {
 public:
  // `gnn` is borrowed and must outlive the explainer. Holds no Theta until
  // fit() or set_model(); `init_seed` seeds the Theta that fit() trains.
  CfgExplainer(const GnnClassifier& gnn, ExplainerTrainConfig train_config = {},
               InterpretationConfig interpret_config = {},
               std::uint64_t init_seed = 99);

  std::string name() const override { return "CFGExplainer"; }

  // Runs Algorithm 1 (joint training of Theta_s + Theta_c) from the
  // seeded initial Theta.
  void fit(const Corpus& corpus,
           const std::vector<std::size_t>& train_indices) override;

  // Runs Algorithm 2 and returns the importance ordering.
  NodeRanking explain(const Acfg& graph) override;

  // True once the explainer holds a Theta (after fit() or set_model()).
  bool fitted() const noexcept { return model_ != nullptr; }
  // Throws std::logic_error when no Theta is held.
  const ExplainerModel& model() const;
  const ExplainerTrainResult& train_result() const { return train_result_; }

  // Checkpointing of the trained Theta (bench artifact cache). Saving
  // throws std::logic_error when no Theta is held.
  void save_model_file(const std::string& path) const { model().save_file(path); }
  void load_model_file(const std::string& path);

  // Adopts an already-trained Theta. The shared overload borrows it
  // read-only: Algorithm 2 never writes Theta, so any number of explainers,
  // on any threads, may hold the same one. Throws std::invalid_argument for
  // a null model or one whose dims do not match the GNN.
  void set_model(ExplainerModel model);
  void set_model(std::shared_ptr<const ExplainerModel> model);

  // Full Algorithm-2 output (subgraph node sets / adjacencies) for callers
  // that need more than the ranking (Table V qualitative analysis). Throws
  // std::logic_error when no Theta is held.
  Interpretation interpret(const Acfg& graph) const;

 private:
  const GnnClassifier* gnn_;
  std::shared_ptr<const ExplainerModel> model_;
  ExplainerTrainConfig train_config_;
  InterpretationConfig interpret_config_;
  std::uint64_t init_seed_;
  ExplainerTrainResult train_result_;
};

}  // namespace cfgx
