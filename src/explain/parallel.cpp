#include "explain/parallel.hpp"

#include <stdexcept>

namespace cfgx {

std::string ExplainOutcome::error_message() const {
  if (error == nullptr) return "";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

std::vector<ExplainOutcome> explain_batch_outcomes(
    const std::vector<const Acfg*>& graphs, ThreadPool& pool,
    const ExplainerFactory& factory) {
  for (const Acfg* graph : graphs) {
    if (graph == nullptr) {
      throw std::invalid_argument(
          "explain_batch_outcomes: null graph pointer");
    }
  }

  std::vector<ExplainOutcome> outcomes(graphs.size());
  parallel_ranges(pool, graphs.size(), [&](std::size_t begin, std::size_t end) {
    // One explainer per chunk, so chunks share nothing. A throwing factory
    // is retried on the chunk's next graph (its failure is recorded per
    // graph, not cached), which also covers transient construction
    // failures. The catch is the failure-isolation point: no exception
    // crosses the pool task boundary, so parallel_ranges drains every
    // future normally and the pool stays reusable afterwards.
    std::unique_ptr<Explainer> explainer;
    for (std::size_t i = begin; i < end; ++i) {
      try {
        if (!explainer) {
          explainer = factory();
          if (!explainer) {
            throw std::logic_error(
                "explain_batch_outcomes: factory returned null");
          }
        }
        outcomes[i].ranking = explainer->explain(*graphs[i]);
      } catch (...) {
        outcomes[i].error = std::current_exception();
      }
    }
  });
  return outcomes;
}

}  // namespace cfgx
