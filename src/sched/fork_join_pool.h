// A fork/join thread pool with per-worker Chase–Lev deques and random
// stealing — the C++ stand-in for the Java 7 Fork/Join framework on which
// the JStar runtime's *all-minimums* parallelisation strategy runs (§5).
//
// The pool supports the two operations the engine needs:
//   * for_each_index — dynamic-chunked parallel loop the calling thread
//                      takes part in (batch phases, CSV region readers,
//                      matrix rows, median partition regions, ...)
//   * invoke_all   — run a batch of closures and join
// plus fire-and-forget submit() for the Disruptor-style pipelines.
//
// Nested parallelism inside rule bodies cannot deadlock the pool: a loop's
// caller can always finish the loop alone, and workers joining an
// invoke_all batch *help* (run tasks from their own deque, the injector
// queue, or steal from peers) while they wait.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/work_stealing_deque.h"
#include "util/rng.h"

namespace jstar::sched {

class ForkJoinPool;

namespace detail {

/// Counts down as tasks of one batch complete; external waiters block on
/// the condition variable, worker waiters help-execute instead.  The latch
/// also owns the batch's first exception: capture is per-batch, not
/// per-pool, so concurrent invoke_all batches (several shard engines
/// sharing one pool) can never observe each other's failures.
class BatchLatch {
 public:
  explicit BatchLatch(std::int64_t count) : remaining_(count) {}

  void count_down() {
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_.notify_all();
    }
  }

  bool done() const { return remaining_.load(std::memory_order_acquire) <= 0; }

  void wait() {
    if (done()) return;
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return done(); });
  }

  void record_exception(std::exception_ptr ep) {
    std::lock_guard<std::mutex> lk(ex_mu_);
    if (!exception_) exception_ = ep;
  }

  std::exception_ptr take_exception() {
    std::lock_guard<std::mutex> lk(ex_mu_);
    std::exception_ptr ep = exception_;
    exception_ = nullptr;
    return ep;
  }

 private:
  std::atomic<std::int64_t> remaining_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::mutex ex_mu_;
  std::exception_ptr exception_;
};

/// A unit of pool work.  run() does the work and then releases the
/// task's storage; it never throws (closures park exceptions in their
/// latch or the pool, loop helpers in their loop).
class Task {
 public:
  virtual void run() noexcept = 0;

 protected:
  ~Task() = default;
};

}  // namespace detail

class ForkJoinPool {
 public:
  /// Creates a pool with `threads` worker threads (>= 1).  This corresponds
  /// to the paper's `--threads=N` runtime flag.
  explicit ForkJoinPool(int threads);
  ~ForkJoinPool();

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Runs all closures, potentially in parallel, and blocks until every one
  /// has finished.  Exceptions from tasks are captured in the batch's own
  /// latch and the first one is rethrown to the caller after the join —
  /// concurrent batches on the same pool keep their failures separate.
  void invoke_all(std::vector<std::function<void()>> tasks);

  /// Runs fn(i) for every i in [0, n) in `grain`-sized chunks (0 = auto).
  /// The calling thread takes part: it enqueues at most size() - 1 helper
  /// tasks and claims chunks alongside them, so `threads = N` still means
  /// N threads running fn, and current_pool() is this pool inside fn on
  /// the caller too.  Returns once the range is used up and every chunk a
  /// helper claimed has ended; a helper that starts later returns without
  /// calling fn.  The first exception fn throws cancels the unclaimed
  /// chunks and is rethrown here.
  void for_each_index(std::int64_t n, const std::function<void(std::int64_t)>& fn,
                      std::int64_t grain = 0);

  /// Fire-and-forget.  The task runs on some worker eventually.
  void submit(std::function<void()> fn);

  /// Blocks until every submitted/forked task has completed, then
  /// rethrows the first exception a fire-and-forget submit() task threw
  /// since the last wait (invoke_all batches rethrow at their own join).
  void wait_idle();

  /// The pool the calling thread is a worker of or is running a
  /// for_each_index loop on, or nullptr.
  static ForkJoinPool* current_pool();
  /// Worker index of the calling thread within current_pool(), or -1.
  static int current_worker_index();

 private:
  struct Worker {
    WorkStealingDeque<detail::Task*> deque;
    std::thread thread;
  };

  struct Closure;
  class Loop;

  void worker_loop(int index);
  bool try_run_one(int self_index, SplitMix64& rng);
  /// Makes `copies` runs of `task` available to the workers.
  void enqueue(detail::Task* task, int copies = 1);
  /// Wakes one parked worker, if any.
  void wake_one();
  void help_until(detail::BatchLatch& latch, int self_index);
  void record_exception(std::exception_ptr ep);
  void run_task(detail::Task* t);

  std::vector<std::unique_ptr<Worker>> workers_;

  // Injector queue for tasks submitted from non-worker threads.
  std::mutex injector_mu_;
  std::deque<detail::Task*> injector_;

  // Sleep/wake machinery.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<int> sleepers_{0};

  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> inflight_{0};

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  std::mutex exception_mu_;
  std::exception_ptr first_exception_;
};

}  // namespace jstar::sched
