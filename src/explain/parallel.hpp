// Parallel batch explanation.
//
// Per-graph explanation is embarrassingly parallel, but most explainers
// carry per-call mutable state (layer caches, RNGs), so one instance
// cannot be shared across threads. explain_batch_outcomes takes a
// *factory*, splits the batch into one contiguous chunk per pool worker
// (parallel_ranges) and gives each chunk its own explainer; results come
// back in input order and are bit-identical to a serial run because each
// graph's computation is seed-isolated. The factory may still share
// read-only state between the explainers it makes: CFGExplainer instances
// from make_cfg_explainer_factory all borrow one const Theta.
//
//   ThreadPool pool;
//   auto outcomes = explain_batch_outcomes(
//       graphs, pool, [&] { return std::make_unique<GnnExplainer>(gnn); });
//
// The GNN handed to the factory may carry a kernel pool (even this same
// pool): a reentrant parallel_for from a worker runs inline, so the sparse
// kernels inside each explanation never deadlock the batch.
//
// Failure isolation (the long-running-process contract): one graph's
// explainer throwing must not cost the rest of the batch their results,
// and must leave the pool reusable. explain_batch_outcomes catches every
// per-graph exception inside the worker chunk — no exception ever crosses
// a pool task boundary, every future parallel_for waits on is drained
// normally, and each graph comes back with either its ranking or its own
// typed error.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "explain/explainer_api.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {

using ExplainerFactory = std::function<std::unique_ptr<Explainer>()>;

// Per-graph result: exactly one of `ranking` (on success) or `error` (the
// exception the graph's factory/explainer threw) is meaningful.
struct ExplainOutcome {
  NodeRanking ranking;
  std::exception_ptr error;  // null on success

  bool ok() const noexcept { return error == nullptr; }
  // what() of the captured exception ("" on success, a fallback string for
  // non-std::exception throwables).
  std::string error_message() const;
};

// Explains every graph; outcomes[i] corresponds to graphs[i]. The batch is
// split into at most pool.worker_count() chunks and each chunk makes at
// most one explainer (a factory that throws is retried on the chunk's next
// graph), so the factory must be callable concurrently. Per-graph failures
// (factory or explainer throwing) are captured in the outcome — this
// function itself only throws on invalid input (a null graph pointer).
std::vector<ExplainOutcome> explain_batch_outcomes(
    const std::vector<const Acfg*>& graphs, ThreadPool& pool,
    const ExplainerFactory& factory);

}  // namespace cfgx
