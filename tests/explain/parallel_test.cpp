#include "explain/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "explain/baselines.hpp"

namespace cfgx {
namespace {

Corpus tiny_corpus() {
  CorpusConfig config;
  config.samples_per_family = 2;
  config.seed = 3;
  return generate_corpus(config);
}

std::vector<const Acfg*> graphs_of(const Corpus& corpus,
                                   const std::vector<std::size_t>& indices) {
  std::vector<const Acfg*> graphs;
  for (std::size_t index : indices) graphs.push_back(&corpus.graph(index));
  return graphs;
}

std::vector<std::size_t> all_indices(const Corpus& corpus) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < corpus.size(); ++i) indices.push_back(i);
  return indices;
}

TEST(ExplainBatchTest, MatchesSerialExecution) {
  const Corpus corpus = tiny_corpus();
  const std::vector<std::size_t> indices = all_indices(corpus);

  ThreadPool pool(4);
  const auto parallel = explain_batch_outcomes(
      graphs_of(corpus, indices), pool,
      [] { return std::make_unique<RandomExplainer>(9); });

  RandomExplainer serial(9);
  ASSERT_EQ(parallel.size(), indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    ASSERT_TRUE(parallel[i].ok()) << "graph " << i;
    EXPECT_EQ(parallel[i].ranking.order,
              serial.explain(corpus.graph(indices[i])).order)
        << "graph " << i;
  }
}

TEST(ExplainBatchTest, ResultsAlignedWithInputOrder) {
  const Corpus corpus = tiny_corpus();
  std::vector<std::size_t> indices{5, 0, 11};
  ThreadPool pool(2);
  const auto outcomes = explain_batch_outcomes(
      graphs_of(corpus, indices), pool,
      [] { return std::make_unique<DegreeExplainer>(); });
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(outcomes[i].ranking.order.size(),
              corpus.graph(indices[i]).num_nodes());
  }
}

TEST(ExplainBatchTest, EmptyInputGivesEmptyOutput) {
  ThreadPool pool(2);
  const auto outcomes = explain_batch_outcomes(
      std::vector<const Acfg*>{}, pool,
      [] { return std::make_unique<DegreeExplainer>(); });
  EXPECT_TRUE(outcomes.empty());
}

TEST(ExplainBatchTest, NullGraphThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(
      explain_batch_outcomes(std::vector<const Acfg*>{nullptr}, pool,
                             [] { return std::make_unique<DegreeExplainer>(); }),
      std::invalid_argument);
}

TEST(ExplainBatchTest, NullFactoryResultThrows) {
  const Corpus corpus = tiny_corpus();
  ThreadPool pool(2);
  const auto outcomes = explain_batch_outcomes(
      graphs_of(corpus, {0}), pool,
      []() -> std::unique_ptr<Explainer> { return nullptr; });
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_THROW(std::rethrow_exception(outcomes[0].error), std::logic_error);
}

TEST(ExplainBatchTest, ExplainerExceptionPropagates) {
  class ThrowingExplainer : public Explainer {
   public:
    std::string name() const override { return "Throwing"; }
    NodeRanking explain(const Acfg&) override {
      throw std::runtime_error("boom");
    }
  };
  const Corpus corpus = tiny_corpus();
  ThreadPool pool(2);
  const auto outcomes = explain_batch_outcomes(
      graphs_of(corpus, {0, 1}), pool,
      [] { return std::make_unique<ThrowingExplainer>(); });
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& outcome : outcomes) {
    EXPECT_THROW(std::rethrow_exception(outcome.error), std::runtime_error);
  }
}

// One explainer throwing mid-batch must not cost the other graphs their
// results, leave tasks queued against destroyed synchronization state, or
// poison the pool for later batches.
TEST(ExplainBatchTest, KthGraphThrowingYieldsTypedPerGraphErrors) {
  // Throws on every graph whose node count matches the k-th graph's; other
  // graphs explain normally through a DegreeExplainer.
  class SelectivelyThrowing : public Explainer {
   public:
    explicit SelectivelyThrowing(std::uint32_t poison_nodes)
        : poison_nodes_(poison_nodes) {}
    std::string name() const override { return "SelectivelyThrowing"; }
    NodeRanking explain(const Acfg& graph) override {
      if (graph.num_nodes() == poison_nodes_) {
        throw std::runtime_error("poisoned graph");
      }
      return inner_.explain(graph);
    }

   private:
    std::uint32_t poison_nodes_;
    DegreeExplainer inner_;
  };

  const Corpus corpus = tiny_corpus();
  std::vector<const Acfg*> graphs;
  for (std::size_t i = 0; i < 6; ++i) graphs.push_back(&corpus.graph(i));
  const std::uint32_t poison = graphs[3]->num_nodes();

  ThreadPool pool(3);
  const auto outcomes = explain_batch_outcomes(graphs, pool, [&] {
    return std::make_unique<SelectivelyThrowing>(poison);
  });

  ASSERT_EQ(outcomes.size(), graphs.size());
  DegreeExplainer reference;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    if (graphs[i]->num_nodes() == poison) {
      EXPECT_FALSE(outcomes[i].ok()) << "graph " << i;
      EXPECT_EQ(outcomes[i].error_message(), "poisoned graph");
      EXPECT_TRUE(outcomes[i].ranking.order.empty());
    } else {
      EXPECT_TRUE(outcomes[i].ok()) << "graph " << i;
      EXPECT_EQ(outcomes[i].error_message(), "");
      EXPECT_EQ(outcomes[i].ranking.order,
                reference.explain(*graphs[i]).order);
    }
  }

  // The pool survived the failing batch: a follow-up batch on the SAME
  // pool completes normally with full results.
  const auto again = explain_batch_outcomes(graphs, pool, [] {
    return std::make_unique<DegreeExplainer>();
  });
  ASSERT_EQ(again.size(), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_TRUE(again[i].ok()) << "graph " << i;
    EXPECT_EQ(again[i].ranking.order.size(), graphs[i]->num_nodes());
  }
}

TEST(ExplainBatchTest, ThrowingFactoryIsAPerGraphError) {
  const Corpus corpus = tiny_corpus();
  std::vector<const Acfg*> graphs{&corpus.graph(0), &corpus.graph(1)};
  ThreadPool pool(1);
  const auto outcomes = explain_batch_outcomes(graphs, pool, []() -> std::unique_ptr<Explainer> {
    throw std::runtime_error("factory down");
  });
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& outcome : outcomes) {
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error_message(), "factory down");
  }
  // Pool still functional.
  const auto ok = explain_batch_outcomes(graphs, pool, [] {
    return std::make_unique<DegreeExplainer>();
  });
  ASSERT_EQ(ok.size(), 2u);
  for (const auto& outcome : ok) EXPECT_TRUE(outcome.ok());
}

TEST(ExplainBatchTest, FactoryCalledAtMostOncePerWorker) {
  const Corpus corpus = tiny_corpus();
  std::atomic<int> constructions{0};
  ThreadPool pool(3);
  explain_batch_outcomes(graphs_of(corpus, all_indices(corpus)), pool, [&] {
    ++constructions;
    return std::make_unique<DegreeExplainer>();
  });
  EXPECT_LE(constructions.load(), 3);
  EXPECT_GE(constructions.load(), 1);
}

}  // namespace
}  // namespace cfgx
