#include "explain/cfg_explainer.hpp"

#include <stdexcept>

namespace cfgx {
namespace {

ExplainerModelConfig model_config_for(const GnnClassifier& gnn) {
  ExplainerModelConfig config;
  config.embedding_dim = gnn.config().embedding_dim();
  config.num_classes = gnn.config().num_classes;
  return config;
}

}  // namespace

CfgExplainer::CfgExplainer(const GnnClassifier& gnn,
                           ExplainerTrainConfig train_config,
                           InterpretationConfig interpret_config,
                           std::uint64_t init_seed)
    : gnn_(&gnn),
      model_([&] {
        Rng rng(init_seed);
        return ExplainerModel(model_config_for(gnn), rng);
      }()),
      train_config_(std::move(train_config)),
      interpret_config_(interpret_config) {}

void CfgExplainer::fit(const Corpus& corpus,
                       const std::vector<std::size_t>& train_indices) {
  train_result_ = train_explainer(model_, *gnn_, corpus, train_indices,
                                  train_config_);
  fitted_ = true;
}

void CfgExplainer::load_model_file(const std::string& path) {
  set_model(ExplainerModel::load_file(path));
}

void CfgExplainer::set_model(ExplainerModel model) {
  if (model.config().embedding_dim != model_.config().embedding_dim ||
      model.config().num_classes != model_.config().num_classes) {
    throw std::invalid_argument(
        "CfgExplainer::set_model: model does not match the GNN");
  }
  model_ = std::move(model);
  fitted_ = true;
}

NodeRanking CfgExplainer::explain(const Acfg& graph) {
  NodeRanking ranking;
  ranking.order = interpret(graph).ordered_nodes;
  return ranking;
}

Interpretation CfgExplainer::interpret(const Acfg& graph) const {
  if (!fitted_) {
    throw std::logic_error("CfgExplainer::interpret: call fit() first");
  }
  // Scoring is const and cache-free, so concurrent interpret() calls share
  // one model.
  return Interpreter(model_, *gnn_).interpret(graph, interpret_config_);
}

}  // namespace cfgx
