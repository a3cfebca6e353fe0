// The const, cache-free Theta_s inference path (ExplainerModel::score_nodes
// over Module::infer):
//  * scoring a const model is bit-identical to the cached training forward
//    (joint_forward(z).scores), on every row and on the live rows of a
//    row-masked call, for random model shapes, scales and inputs;
//  * four threads scoring one shared const model get identical bits;
//  * inference writes no training cache: joint_backward after scoring
//    alone still throws.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/explainer_model.hpp"
#include "proptest/proptest.hpp"
#include "util/rng.hpp"

namespace cfgx {
namespace {

bool rows_bit_identical(const Matrix& a, const Matrix& b, std::size_t r) {
  return std::memcmp(a.row(r).data(), b.row(r).data(),
                     a.cols() * sizeof(double)) == 0;
}

bool bit_identical(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    if (!rows_bit_identical(a, b, r)) return false;
  }
  return true;
}

// A random model (embedding width, scorer depth/widths, class count and
// embedding scale all drawn from `rng`) and a random embedding matrix.
struct Case {
  ExplainerModel model;
  Matrix embeddings;
};

Case random_case(std::uint64_t seed) {
  Rng rng(seed);
  ExplainerModelConfig config;
  config.embedding_dim = 1 + rng.uniform_index(12);
  config.scorer_dims.clear();
  const std::size_t hidden = rng.uniform_index(3);
  for (std::size_t i = 0; i < hidden; ++i) {
    config.scorer_dims.push_back(1 + rng.uniform_index(20));
  }
  config.scorer_dims.push_back(1);
  config.surrogate_dims = {1 + rng.uniform_index(8)};
  config.num_classes = 2 + rng.uniform_index(4);
  ExplainerModel model(config, rng);
  model.set_embedding_scale(rng.uniform(0.1, 5.0));
  Matrix embeddings(1 + rng.uniform_index(60), config.embedding_dim);
  for (std::size_t i = 0; i < embeddings.size(); ++i) {
    embeddings.data()[i] = rng.uniform(-3.0, 3.0);
  }
  return {std::move(model), std::move(embeddings)};
}

TEST(ConstScorer, BitIdenticalToJointForwardScores) {
  CHECK_PROPERTY(
      "score_nodes(z) == joint_forward(z).scores, all rows and live rows",
      proptest::integers(1, 1 << 24), [](std::int64_t seed) {
        Case c = random_case(static_cast<std::uint64_t>(seed));
        const ExplainerModel& inference = c.model;
        const Matrix scores = inference.score_nodes(c.embeddings);
        const Matrix expected = c.model.joint_forward(c.embeddings).scores;
        if (!bit_identical(scores, expected)) return false;

        Rng rng(static_cast<std::uint64_t>(seed) ^ 0x5eedu);
        std::vector<double> live(c.embeddings.rows());
        for (double& v : live) v = rng.uniform_index(3) == 0 ? 0.0 : 1.0;
        Matrix masked;
        inference.score_nodes_into(c.embeddings, masked, live.data());
        if (!masked.same_shape(expected)) return false;
        for (std::size_t r = 0; r < live.size(); ++r) {
          if (live[r] != 0.0 && !rows_bit_identical(masked, expected, r)) {
            return false;
          }
        }
        return true;
      },
      {.iterations = 60});
}

TEST(ConstScorer, SharedModelScoresIdenticallyOnFourThreads) {
  Case c = random_case(77);
  const ExplainerModel& shared = c.model;
  std::vector<Matrix> inputs;
  Rng rng(78);
  for (std::size_t k = 0; k < 6; ++k) {
    Matrix z(20 + 17 * k, c.embeddings.cols());
    for (std::size_t i = 0; i < z.size(); ++i) {
      z.data()[i] = rng.uniform(-2.0, 2.0);
    }
    inputs.push_back(std::move(z));
  }
  std::vector<Matrix> reference;
  for (const Matrix& z : inputs) reference.push_back(shared.score_nodes(z));

  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 25;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Matrix out;
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < inputs.size(); ++k) {
          shared.score_nodes_into(inputs[k], out);
          if (!bit_identical(out, reference[k])) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(ConstScorer, InferenceWritesNoTrainingCache) {
  Case c = random_case(5);
  const ExplainerModel& inference = c.model;
  Matrix out;
  inference.score_nodes_into(c.embeddings, out);
  (void)inference.score_nodes(c.embeddings);
  const Matrix grad(1, c.model.config().num_classes, 0.1);
  EXPECT_THROW(c.model.joint_backward(grad), std::logic_error);
}

}  // namespace
}  // namespace cfgx
