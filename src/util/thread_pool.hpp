// Fixed-size thread pool with a parallel_for helper.
//
// Used to parallelize per-graph explanation work and the sparse/dense
// matrix kernels (each unit of work writes a disjoint output region, so
// parallel execution does not perturb determinism). On a single-core
// machine the pool degrades gracefully to near-serial execution with
// identical results.
//
// Reentrancy: parallel_for called from one of this pool's own workers runs
// inline on the calling thread. A worker that blocked on futures for
// sub-tasks queued behind its own task would deadlock (most visibly with a
// 1-thread pool); inline execution preserves results and the exception
// contract.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cfgx {

// Half-open index range [begin, end).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

// Chunk `c` of [0, count) split into `chunks` contiguous, disjoint chunks
// in index order whose sizes differ by at most one (the first
// count % chunks chunks take one extra index), so no chunk starts past
// `count`; when chunks > count the trailing chunks are empty. Requires
// c < chunks.
IndexRange chunk_range(std::size_t count, std::size_t chunks, std::size_t c);

class ThreadPool {
 public:
  // worker_count == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t worker_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  // True when the calling thread is one of THIS pool's workers.
  bool in_worker_thread() const;

  // Enqueue a task; the returned future rethrows any task exception.
  // Throws std::logic_error once shutdown has begun: a task enqueued after
  // the workers were told to drain could be popped by no one, leaving its
  // future waiting forever — a latent hang in any long-running process
  // that races submission against teardown.
  std::future<void> submit(std::function<void()> task);

  // Runs fn(i) for i in [0, count), blocking until all complete. Indices
  // are dispatched as min(count, worker_count()) chunk_range() chunks (one
  // queue entry per chunk, not per index). Every index is attempted even
  // when an earlier one throws; the first exception in index order is
  // rethrown.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  // Enqueue timestamp rides along so workers can report queue wait time;
  // it is only populated (and the clock only read) while metrics are on.
  struct QueuedTask {
    std::packaged_task<void()> task;
    double enqueued_seconds = 0.0;
  };

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

// Splits [0, extent) into min(extent, pool.worker_count()) chunk_range()
// chunks and runs body(begin, end) once per chunk through parallel_for
// (same reentrancy and exception contract). Chunks are disjoint, so the
// body may write its own range without synchronization, and per-chunk
// state (a scratch buffer, an explainer) is never shared across threads.
void parallel_ranges(ThreadPool& pool, std::size_t extent,
                     const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace cfgx
