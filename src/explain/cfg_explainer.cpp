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
      train_config_(std::move(train_config)),
      interpret_config_(interpret_config),
      init_seed_(init_seed) {}

void CfgExplainer::fit(const Corpus& corpus,
                       const std::vector<std::size_t>& train_indices) {
  Rng rng(init_seed_);
  auto model = std::make_shared<ExplainerModel>(model_config_for(*gnn_), rng);
  train_result_ = train_explainer(*model, *gnn_, corpus, train_indices,
                                  train_config_);
  model_ = std::move(model);
}

const ExplainerModel& CfgExplainer::model() const {
  if (!model_) {
    throw std::logic_error("CfgExplainer: call fit() or set_model() first");
  }
  return *model_;
}

void CfgExplainer::load_model_file(const std::string& path) {
  set_model(ExplainerModel::load_file(path));
}

void CfgExplainer::set_model(ExplainerModel model) {
  set_model(std::make_shared<const ExplainerModel>(std::move(model)));
}

void CfgExplainer::set_model(std::shared_ptr<const ExplainerModel> model) {
  const ExplainerModelConfig expected = model_config_for(*gnn_);
  if (!model || model->config().embedding_dim != expected.embedding_dim ||
      model->config().num_classes != expected.num_classes) {
    throw std::invalid_argument(
        "CfgExplainer::set_model: model does not match the GNN");
  }
  model_ = std::move(model);
}

NodeRanking CfgExplainer::explain(const Acfg& graph) {
  NodeRanking ranking;
  ranking.order = interpret(graph).ordered_nodes;
  return ranking;
}

Interpretation CfgExplainer::interpret(const Acfg& graph) const {
  // Scoring is const and cache-free, so concurrent interpret() calls share
  // one model.
  return Interpreter(model(), *gnn_).interpret(graph, interpret_config_);
}

}  // namespace cfgx
