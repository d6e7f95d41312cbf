#include "sched/fork_join_pool.h"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "util/check.h"

namespace jstar::sched {

namespace {
thread_local ForkJoinPool* tl_pool = nullptr;
thread_local int tl_worker_index = -1;

/// How long a loop's caller polls for helpers' claimed chunks to end
/// before it sleeps: most such waits last one chunk, and a sleeping
/// thread on a virtualised host can take a millisecond to wake.
constexpr std::chrono::microseconds kWaitSpin{500};
}  // namespace

/// An invoke_all or submit closure: one heap task per closure.
struct ForkJoinPool::Closure final : detail::Task {
  Closure(ForkJoinPool& p, std::function<void()> f,
          std::shared_ptr<detail::BatchLatch> l)
      : pool(p), fn(std::move(f)), latch(std::move(l)) {}

  void run() noexcept override {
    // The local copy keeps the latch alive past `delete this` *and* past
    // the caller's invoke_all frame, so the final count_down is safe even
    // if the batch owner wakes and returns concurrently.
    std::shared_ptr<detail::BatchLatch> l = std::move(latch);
    try {
      fn();
    } catch (...) {
      // Batch tasks park the exception in their own latch; fire-and-forget
      // tasks fall back to the pool-level slot (nothing joins them).
      if (l) {
        l->record_exception(std::current_exception());
      } else {
        pool.record_exception(std::current_exception());
      }
    }
    delete this;
    if (l) l->count_down();
  }

  ForkJoinPool& pool;
  std::function<void()> fn;
  std::shared_ptr<detail::BatchLatch> latch;  // null for fire-and-forget
};

/// The shared state of one for_each_index call, and the task its helpers
/// run: the caller enqueues this one object once per helper.  Each helper
/// run and the caller hold a reference; the last to let go deletes it, so
/// a helper that starts after the caller returned still finds the claim
/// counter alive (and the range used up).  fn_ points into the caller's
/// frame and is only called under a claimed chunk, which the caller
/// outwaits.
class ForkJoinPool::Loop final : public detail::Task {
 public:
  Loop(std::int64_t n, std::int64_t grain,
       const std::function<void(std::int64_t)>& fn, int refs)
      : n_(n), grain_(grain), fn_(&fn), refs_(refs) {}

  void run() noexcept override {
    active_.fetch_add(1);
    claim_chunks();
    if (active_.fetch_sub(1) == 1 && caller_asleep_.load()) {
      active_.notify_all();
    }
    release();
  }

  /// Claims and runs chunks until the range is used up (or cancelled).
  void claim_chunks() noexcept {
    for (;;) {
      const std::int64_t begin = next_.fetch_add(grain_);
      if (begin >= n_) return;
      const std::int64_t end = std::min(begin + grain_, n_);
      try {
        for (std::int64_t i = begin; i < end; ++i) (*fn_)(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(ex_mu_);
          if (!exception_) exception_ = std::current_exception();
        }
        next_.store(n_);  // cancel the chunks nobody has claimed
      }
    }
  }

  /// The caller's side after its own claim_chunks(): waits until every
  /// helper that started has left, i.e. every claimed chunk has ended.
  /// Helpers count themselves in before their first claim, so once the
  /// caller has seen the range used up, a helper it does not wait for can
  /// claim nothing.
  void wait_for_helpers() {
    const auto spin_until = std::chrono::steady_clock::now() + kWaitSpin;
    while (active_.load() != 0) {
      if (std::chrono::steady_clock::now() < spin_until) {
        std::this_thread::yield();
        continue;
      }
      // Pairs with run(): either the last helper out sees the flag and
      // notifies, or the load below sees its departure.
      caller_asleep_.store(true);
      const int active = active_.load();
      if (active != 0) active_.wait(active);
    }
  }

  std::exception_ptr take_exception() {
    std::lock_guard<std::mutex> lk(ex_mu_);
    return exception_;
  }

  void release() noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

 private:
  const std::int64_t n_;
  const std::int64_t grain_;
  const std::function<void(std::int64_t)>* const fn_;
  std::atomic<std::int64_t> next_{0};
  std::atomic<int> active_{0};  // helpers between arrival and departure
  std::atomic<bool> caller_asleep_{false};
  std::atomic<int> refs_;
  std::mutex ex_mu_;
  std::exception_ptr exception_;
};

ForkJoinPool* ForkJoinPool::current_pool() { return tl_pool; }
int ForkJoinPool::current_worker_index() { return tl_worker_index; }

ForkJoinPool::ForkJoinPool(int threads) {
  JSTAR_CHECK_MSG(threads >= 1, "pool needs at least one thread");
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int i = 0; i < threads; ++i) {
    workers_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { worker_loop(i); });
  }
}

ForkJoinPool::~ForkJoinPool() {
  // Not wait_idle(): a parked fire-and-forget exception must not throw
  // out of a destructor.  It dies with the pool, like a detached thread's.
  {
    std::unique_lock<std::mutex> lk(idle_mu_);
    idle_cv_.wait(lk, [&] {
      return inflight_.load(std::memory_order_acquire) == 0;
    });
  }
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(sleep_mu_);
    sleep_cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // Nothing is left to free: inflight_ counted every enqueued run, loop
  // helpers that started after their caller returned included, and the
  // wait above saw each of them finish.
}

void ForkJoinPool::record_exception(std::exception_ptr ep) {
  std::lock_guard<std::mutex> lk(exception_mu_);
  if (!first_exception_) first_exception_ = ep;
}

void ForkJoinPool::run_task(detail::Task* t) {
  t->run();
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lk(idle_mu_);
    idle_cv_.notify_all();
  }
}

void ForkJoinPool::enqueue(detail::Task* task, int copies) {
  inflight_.fetch_add(copies, std::memory_order_acq_rel);
  if (tl_pool == this && tl_worker_index >= 0) {
    auto& deque = workers_[static_cast<std::size_t>(tl_worker_index)]->deque;
    for (int i = 0; i < copies; ++i) deque.push(task);
  } else {
    std::lock_guard<std::mutex> lk(injector_mu_);
    injector_.insert(injector_.end(), static_cast<std::size_t>(copies), task);
  }
  wake_one();
}

void ForkJoinPool::wake_one() {
  // One wake-up per enqueue: waking a parked thread costs its waker tens
  // of microseconds on a virtualised host, so each worker that takes a
  // task while more are queued passes the wake-up on (try_run_one)
  // instead of the enqueuing thread paying for all of them.
  if (sleepers_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lk(sleep_mu_);
    sleep_cv_.notify_one();
  }
}

bool ForkJoinPool::try_run_one(int self_index, SplitMix64& rng) {
  detail::Task* task = nullptr;
  // 1. Own deque (workers only).
  if (self_index >= 0 &&
      workers_[static_cast<std::size_t>(self_index)]->deque.pop(task)) {
    run_task(task);
    return true;
  }
  // 2. Injector queue.
  {
    std::unique_lock<std::mutex> lk(injector_mu_, std::try_to_lock);
    if (lk.owns_lock() && !injector_.empty()) {
      task = injector_.front();
      injector_.pop_front();
      const bool more = !injector_.empty();
      lk.unlock();
      if (more) wake_one();
      run_task(task);
      return true;
    }
  }
  // 3. Steal from a random victim, then scan the rest.
  const int n = size();
  const int start = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(n)));
  for (int k = 0; k < n; ++k) {
    const int victim = (start + k) % n;
    if (victim == self_index) continue;
    auto& deque = workers_[static_cast<std::size_t>(victim)]->deque;
    if (deque.steal(task)) {
      if (!deque.empty_approx()) wake_one();
      run_task(task);
      return true;
    }
  }
  return false;
}

void ForkJoinPool::worker_loop(int index) {
  tl_pool = this;
  tl_worker_index = index;
  SplitMix64 rng(0xC0FFEE ^ static_cast<std::uint64_t>(index) * 7919);
  int misses = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (try_run_one(index, rng)) {
      misses = 0;
      continue;
    }
    if (++misses < 64) {
      std::this_thread::yield();
      continue;
    }
    // Park until new work arrives (or periodically re-check).
    std::unique_lock<std::mutex> lk(sleep_mu_);
    sleepers_.fetch_add(1, std::memory_order_acq_rel);
    sleep_cv_.wait_for(lk, std::chrono::milliseconds(10));
    sleepers_.fetch_sub(1, std::memory_order_acq_rel);
    misses = 0;
  }
  tl_pool = nullptr;
  tl_worker_index = -1;
}

void ForkJoinPool::help_until(detail::BatchLatch& latch, int self_index) {
  SplitMix64 rng(0xFEEDFACE ^ static_cast<std::uint64_t>(self_index + 17));
  while (!latch.done()) {
    if (!try_run_one(self_index, rng)) {
      std::this_thread::yield();
    }
  }
}

void ForkJoinPool::invoke_all(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  const bool on_worker = (tl_pool == this && tl_worker_index >= 0);
  if (tasks.size() == 1 && on_worker) {
    // A worker may run a singleton batch inline: current_pool() is already
    // set, and no other thread can observe the batch.
    tasks[0]();
    return;
  }
  auto latch =
      std::make_shared<detail::BatchLatch>(static_cast<std::int64_t>(tasks.size()));
  for (auto& fn : tasks) enqueue(new Closure(*this, std::move(fn), latch));
  if (on_worker) {
    // Workers help-execute while waiting so nested invoke_all cannot
    // starve the pool.
    help_until(*latch, tl_worker_index);
  } else {
    // Other threads only wait: running a stolen task would set no
    // current_pool() for it.
    latch->wait();
  }
  if (std::exception_ptr ep = latch->take_exception()) {
    std::rethrow_exception(ep);
  }
}

void ForkJoinPool::for_each_index(std::int64_t n,
                                  const std::function<void(std::int64_t)>& fn,
                                  std::int64_t grain) {
  if (n <= 0) return;
  if (grain <= 0) grain = std::max<std::int64_t>(1, n / (size() * 8));
  const int helpers = static_cast<int>(
      std::min<std::int64_t>(size() - 1, (n - 1) / grain));
  // fn sees this pool as current_pool() on the calling thread too (rule
  // bodies reach nested loops through it); a thread that is not one of
  // its workers takes part with no worker index, hence no deque.
  struct Scope {
    ForkJoinPool* pool = tl_pool;
    int index = tl_worker_index;
    ~Scope() {
      tl_pool = pool;
      tl_worker_index = index;
    }
  } scope;
  if (tl_pool != this) {
    tl_pool = this;
    tl_worker_index = -1;
  }
  if (helpers == 0) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto* loop = new Loop(n, grain, fn, helpers + 1);
  enqueue(loop, helpers);
  loop->claim_chunks();
  loop->wait_for_helpers();
  const std::exception_ptr ep = loop->take_exception();
  loop->release();
  if (ep) std::rethrow_exception(ep);
}

void ForkJoinPool::submit(std::function<void()> fn) {
  enqueue(new Closure(*this, std::move(fn), nullptr));
}

void ForkJoinPool::wait_idle() {
  {
    std::unique_lock<std::mutex> lk(idle_mu_);
    idle_cv_.wait(lk, [&] {
      return inflight_.load(std::memory_order_acquire) == 0;
    });
  }
  // Surface the first exception a fire-and-forget task threw since the
  // last wait (batch tasks rethrow at their own join in invoke_all).
  std::exception_ptr ep;
  {
    std::lock_guard<std::mutex> lk(exception_mu_);
    ep = first_exception_;
    first_exception_ = nullptr;
  }
  if (ep) std::rethrow_exception(ep);
}

}  // namespace jstar::sched
