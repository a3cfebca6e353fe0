// Determinism oracles: one seed fully determines the pipeline. The corpus,
// the GNN training trajectory, and the explanations must be bit-identical
// across repeated runs and across kernel thread-pool sizes (the sparse
// kernels partition rows into disjoint output regions with a fixed
// accumulation order, so 1 worker and N workers produce the same bits).
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <vector>

#include "explain/cfg_explainer.hpp"
#include "explain/gnnexplainer.hpp"
#include "explain/parallel.hpp"
#include "gnn/trainer.hpp"
#include "graph/serialize.hpp"
#include "proptest/proptest.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

CorpusConfig small_corpus_config(std::uint64_t seed) {
  CorpusConfig config;
  config.samples_per_family = 3;
  config.seed = seed;
  return config;
}

std::string corpus_bytes(const Corpus& corpus) {
  std::ostringstream out(std::ios::binary);
  write_acfg_collection(out, corpus.graphs());
  return out.str();
}

TEST(DeterminismOracle, SameSeedProducesBitIdenticalCorpus) {
  CHECK_PROPERTY(
      "generate_corpus(seed) is a pure function of the seed",
      proptest::integers(1, 1 << 24), [](std::int64_t seed) {
        const auto config =
            small_corpus_config(static_cast<std::uint64_t>(seed));
        const Corpus a = generate_corpus(config);
        const Corpus b = generate_corpus(config);
        return a.graphs() == b.graphs() &&
               corpus_bytes(a) == corpus_bytes(b);
      },
      {.iterations = 5});
}

TEST(DeterminismOracle, TrainingTrajectoryIsThreadCountInvariant) {
  const Corpus corpus = generate_corpus(small_corpus_config(2024));
  std::vector<std::size_t> all(corpus.size());
  std::iota(all.begin(), all.end(), 0u);

  GnnConfig gnn_config;
  gnn_config.gcn_dims = {12, 8};
  GnnTrainConfig train_config;
  train_config.epochs = 12;

  const auto train_with_pool =
      [&](ThreadPool* pool) -> std::pair<GnnTrainResult, std::string> {
    Rng rng(99);
    GnnClassifier gnn(gnn_config, rng);
    gnn.set_kernel_pool(pool);
    const GnnTrainResult result = train_gnn(gnn, corpus, all, train_config);
    std::ostringstream weights(std::ios::binary);
    gnn.save(weights);
    return {result, weights.str()};
  };

  ThreadPool pool4(4);
  ThreadPool pool1(1);
  const auto [serial_result, serial_weights] = train_with_pool(nullptr);
  const auto [one_result, one_weights] = train_with_pool(&pool1);
  const auto [four_result, four_weights] = train_with_pool(&pool4);

  // Bitwise equality of every epoch loss and of the final weights.
  EXPECT_EQ(serial_result.epoch_losses, one_result.epoch_losses);
  EXPECT_EQ(serial_result.epoch_losses, four_result.epoch_losses);
  EXPECT_EQ(serial_result.final_train_accuracy,
            four_result.final_train_accuracy);
  EXPECT_EQ(serial_weights, one_weights);
  EXPECT_EQ(serial_weights, four_weights);
}

class BatchDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new Corpus(generate_corpus(small_corpus_config(2025)));
    std::vector<std::size_t> all(corpus_->size());
    std::iota(all.begin(), all.end(), 0u);

    Rng rng(7);
    GnnConfig gnn_config;
    gnn_config.gcn_dims = {12, 8};
    gnn_ = new GnnClassifier(gnn_config, rng);
    GnnTrainConfig train_config;
    train_config.epochs = 15;
    train_gnn(*gnn_, *corpus_, all, train_config);

    ExplainerTrainConfig exp_train;
    exp_train.epochs = 120;
    exp_train.validation_fraction = 0.0;
    cfg_explainer_ = new CfgExplainer(*gnn_, exp_train);
    cfg_explainer_->fit(*corpus_, all);
  }

  static void TearDownTestSuite() {
    delete cfg_explainer_;
    delete gnn_;
    delete corpus_;
    cfg_explainer_ = nullptr;
    gnn_ = nullptr;
    corpus_ = nullptr;
  }

  static std::vector<NodeRanking> explain_all(ThreadPool& pool,
                                              const ExplainerFactory& factory) {
    std::vector<const Acfg*> graphs;
    for (std::size_t i = 0; i < corpus_->size(); ++i) {
      graphs.push_back(&corpus_->graph(i));
    }
    std::vector<NodeRanking> rankings;
    for (ExplainOutcome& outcome :
         explain_batch_outcomes(graphs, pool, factory)) {
      if (!outcome.ok()) std::rethrow_exception(outcome.error);
      rankings.push_back(std::move(outcome.ranking));
    }
    return rankings;
  }

  static Corpus* corpus_;
  static GnnClassifier* gnn_;
  static CfgExplainer* cfg_explainer_;
};

Corpus* BatchDeterminismTest::corpus_ = nullptr;
GnnClassifier* BatchDeterminismTest::gnn_ = nullptr;
CfgExplainer* BatchDeterminismTest::cfg_explainer_ = nullptr;

TEST_F(BatchDeterminismTest, CfgExplainerTrainingIsRepeatable) {
  // Refitting from the same seed reproduces the exact loss trajectory.
  ExplainerTrainConfig exp_train;
  exp_train.epochs = 120;
  exp_train.validation_fraction = 0.0;
  CfgExplainer again(*gnn_, exp_train);
  std::vector<std::size_t> all(corpus_->size());
  std::iota(all.begin(), all.end(), 0u);
  again.fit(*corpus_, all);
  EXPECT_EQ(again.train_result().epoch_losses,
            cfg_explainer_->train_result().epoch_losses);
}

TEST_F(BatchDeterminismTest, ExplainBatchIsThreadCountInvariant) {
  // The paper's Algorithm-2 interpretation, batched over 1 vs 4 workers,
  // must order every node identically.
  // Reuse the already trained Theta via a checkpoint round trip: fit() is
  // deterministic but expensive, and the batch only needs explain().
  const std::string checkpoint = ::testing::TempDir() + "cfgx_batch_theta.bin";
  cfg_explainer_->save_model_file(checkpoint);
  const auto factory = [&]() -> std::unique_ptr<Explainer> {
    auto clone = std::make_unique<CfgExplainer>(*gnn_);
    clone->load_model_file(checkpoint);
    return clone;
  };
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const auto serial = explain_all(pool1, factory);
  const auto parallel = explain_all(pool4, factory);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].order, parallel[i].order) << "graph " << i;
  }
}

TEST_F(BatchDeterminismTest, GnnExplainerBatchIsThreadCountInvariant) {
  // Seeded per-graph optimization: every worker constructs its own
  // explainer, so thread count cannot leak into the mask trajectories.
  GnnExplainerConfig config;
  config.iterations = 10;
  const auto factory = [&]() -> std::unique_ptr<Explainer> {
    return std::make_unique<GnnExplainer>(*gnn_, config);
  };
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const auto serial = explain_all(pool1, factory);
  const auto parallel = explain_all(pool4, factory);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].order, parallel[i].order) << "graph " << i;
  }
}

TEST_F(BatchDeterminismTest, KernelPoolDoesNotChangeExplanations) {
  // Same explainer weights, kernels run serial vs pooled: Algorithm 2's
  // ordering is bit-identical (PR 1's row-partitioned kernel guarantee).
  ThreadPool pool(4);
  const Acfg& graph = corpus_->graph(0);
  const NodeRanking serial = cfg_explainer_->explain(graph);
  gnn_->set_kernel_pool(&pool);
  const NodeRanking pooled = cfg_explainer_->explain(graph);
  gnn_->set_kernel_pool(nullptr);
  EXPECT_EQ(serial.order, pooled.order);
}

}  // namespace
}  // namespace cfgx
