#include "gnn/trainer.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cmath>

#include "explain/gnnexplainer.hpp"

namespace cfgx {
namespace {

// Four well-separated families keep this training test fast and stable.
Corpus small_corpus() {
  CorpusConfig config;
  config.samples_per_family = 4;
  config.seed = 7;
  return generate_corpus(config);
}

GnnConfig small_gnn_config() {
  GnnConfig config;
  config.gcn_dims = {16, 12};
  return config;
}

TEST(GnnTrainerTest, LossDecreasesOverTraining) {
  const Corpus corpus = small_corpus();
  const Split split = stratified_split(corpus, 0.75, 3);
  Rng rng(1);
  GnnClassifier model(small_gnn_config(), rng);

  GnnTrainConfig config;
  config.epochs = 12;
  const GnnTrainResult result = train_gnn(model, corpus, split.train, config);
  ASSERT_EQ(result.epoch_losses.size(), 12u);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
}

TEST(GnnTrainerTest, AccuracyBeatsChanceAfterTraining) {
  const Corpus corpus = small_corpus();
  const Split split = stratified_split(corpus, 0.75, 3);
  Rng rng(2);
  GnnClassifier model(small_gnn_config(), rng);

  GnnTrainConfig config;
  config.epochs = 80;
  const GnnTrainResult result = train_gnn(model, corpus, split.train, config);
  // Chance is 1/12 ~ 8%; trained model must do far better on train data.
  EXPECT_GT(result.final_train_accuracy, 0.5);
}

TEST(GnnTrainerTest, ScalerIsFittedDuringTraining) {
  const Corpus corpus = small_corpus();
  const Split split = stratified_split(corpus, 0.75, 3);
  Rng rng(3);
  GnnClassifier model(small_gnn_config(), rng);
  EXPECT_FALSE(model.scaler().fitted());
  GnnTrainConfig config;
  config.epochs = 1;
  train_gnn(model, corpus, split.train, config);
  EXPECT_TRUE(model.scaler().fitted());
}

TEST(GnnTrainerTest, OnEpochCallbackFires) {
  const Corpus corpus = small_corpus();
  const Split split = stratified_split(corpus, 0.75, 3);
  Rng rng(4);
  GnnClassifier model(small_gnn_config(), rng);
  std::size_t calls = 0;
  GnnTrainConfig config;
  config.epochs = 3;
  config.on_epoch = [&](std::size_t, double) { ++calls; };
  train_gnn(model, corpus, split.train, config);
  EXPECT_EQ(calls, 3u);
}

TEST(GnnTrainerTest, EmptyTrainingSetThrows) {
  const Corpus corpus = small_corpus();
  Rng rng(5);
  GnnClassifier model(small_gnn_config(), rng);
  EXPECT_THROW(train_gnn(model, corpus, {}, {}), std::invalid_argument);
}

TEST(GnnTrainerTest, ZeroBatchSizeThrows) {
  const Corpus corpus = small_corpus();
  const Split split = stratified_split(corpus, 0.75, 3);
  Rng rng(6);
  GnnClassifier model(small_gnn_config(), rng);
  GnnTrainConfig config;
  config.batch_size = 0;
  EXPECT_THROW(train_gnn(model, corpus, split.train, config),
               std::invalid_argument);
}

TEST(GnnTrainerTest, TrainingIsDeterministic) {
  const Corpus corpus = small_corpus();
  const Split split = stratified_split(corpus, 0.75, 3);
  GnnTrainConfig config;
  config.epochs = 4;

  Rng rng_a(7);
  GnnClassifier model_a(small_gnn_config(), rng_a);
  const auto result_a = train_gnn(model_a, corpus, split.train, config);

  Rng rng_b(7);
  GnnClassifier model_b(small_gnn_config(), rng_b);
  const auto result_b = train_gnn(model_b, corpus, split.train, config);

  ASSERT_EQ(result_a.epoch_losses.size(), result_b.epoch_losses.size());
  for (std::size_t i = 0; i < result_a.epoch_losses.size(); ++i) {
    EXPECT_DOUBLE_EQ(result_a.epoch_losses[i], result_b.epoch_losses[i]);
  }
}

TEST(GnnTrainerTest, EvaluateConfusionTotalsMatchIndices) {
  const Corpus corpus = small_corpus();
  const Split split = stratified_split(corpus, 0.75, 3);
  Rng rng(8);
  GnnClassifier model(small_gnn_config(), rng);
  const ConfusionMatrix cm = evaluate_gnn(model, corpus, split.test);
  EXPECT_EQ(cm.total(), split.test.size());
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

// Paper scale (the dataset's largest CFG has 7352 blocks): one training
// epoch and a 2-step GNNExplainer run on the edge list. A single dense
// N x N copy of this graph is ~432 MB, so the peak RSS growth must stay
// below that.
TEST(GnnTrainerTest, PaperScaleEpochAndGnnExplainerStayOnTheEdgeList) {
  GeneratorConfig generator;
  generator.target_blocks = 7352;
  Rng graph_rng(17);
  Acfg graph = generate_acfg(Family::Rbot, graph_rng, generator);
  const std::size_t n = graph.num_nodes();
  ASSERT_GE(n, 7352u);
  const Corpus corpus({graph}, {0}, CorpusConfig{});

  const long rss_before = peak_rss_kb();
  Rng rng(3);
  GnnClassifier model(GnnConfig{}, rng);
  GnnTrainConfig config;
  config.epochs = 1;
  const GnnTrainResult result = train_gnn(model, corpus, {0}, config);
  ASSERT_EQ(result.epoch_losses.size(), 1u);
  EXPECT_TRUE(std::isfinite(result.epoch_losses[0]));

  GnnExplainer explainer(model, GnnExplainerConfig{.iterations = 2});
  const NodeRanking ranking = explainer.explain(graph);
  EXPECT_EQ(ranking.order.size(), n);
  ASSERT_EQ(explainer.last_edge_scores().size(), graph.num_edges());
  for (double score : explainer.last_edge_scores()) {
    EXPECT_TRUE(std::isfinite(score));
  }

  const double dense_copy_kb = static_cast<double>(n) * n * sizeof(double) / 1024.0;
  EXPECT_LT(static_cast<double>(peak_rss_kb() - rss_before), dense_copy_kb);
}

}  // namespace
}  // namespace cfgx
