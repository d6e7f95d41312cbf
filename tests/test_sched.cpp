// Tests for the fork/join work-stealing pool — the substrate under the
// all-minimums parallelisation strategy (§5).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sched/fork_join_pool.h"
#include "sched/work_stealing_deque.h"

namespace jstar::sched {
namespace {

TEST(WorkStealingDeque, LifoForOwner) {
  WorkStealingDeque<int> dq;
  dq.push(1);
  dq.push(2);
  dq.push(3);
  int out = 0;
  ASSERT_TRUE(dq.pop(out));
  EXPECT_EQ(out, 3);
  ASSERT_TRUE(dq.pop(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(dq.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(dq.pop(out));
}

TEST(WorkStealingDeque, FifoForThief) {
  WorkStealingDeque<int> dq;
  dq.push(1);
  dq.push(2);
  int out = 0;
  ASSERT_TRUE(dq.steal(out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(dq.steal(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(dq.steal(out));
}

TEST(WorkStealingDeque, GrowsBeyondInitialCapacity) {
  WorkStealingDeque<int> dq(4);
  for (int i = 0; i < 1000; ++i) dq.push(i);
  EXPECT_EQ(dq.size_approx(), 1000);
  int out;
  for (int i = 999; i >= 0; --i) {
    ASSERT_TRUE(dq.pop(out));
    EXPECT_EQ(out, i);
  }
}

TEST(WorkStealingDeque, ConcurrentStealersGetDisjointItems) {
  WorkStealingDeque<int> dq;
  constexpr int kItems = 20000;
  for (int i = 0; i < kItems; ++i) dq.push(i);
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> taken{0};
  auto thief = [&] {
    int v;
    while (taken.load() < kItems) {
      if (dq.steal(v)) {
        sum.fetch_add(v);
        taken.fetch_add(1);
      }
    }
  };
  std::thread t1(thief), t2(thief), t3(thief);
  t1.join();
  t2.join();
  t3.join();
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kItems) * (kItems - 1) / 2);
}

TEST(ForkJoinPool, InvokeAllRunsEverything) {
  ForkJoinPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) tasks.push_back([&] { count.fetch_add(1); });
  pool.invoke_all(std::move(tasks));
  EXPECT_EQ(count.load(), 100);
}

TEST(ForkJoinPool, SingleTaskRunsInline) {
  ForkJoinPool pool(2);
  bool ran = false;
  pool.invoke_all({[&] { ran = true; }});
  EXPECT_TRUE(ran);
}

TEST(ForkJoinPool, ForEachIndexCoversRangeExactlyOnce) {
  ForkJoinPool pool(4);
  constexpr std::int64_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  pool.for_each_index(kN, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ForkJoinPool, ForEachIndexEmptyAndTiny) {
  ForkJoinPool pool(3);
  int calls = 0;
  pool.for_each_index(0, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.for_each_index(1, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ForkJoinPool, NestedParallelismDoesNotDeadlock) {
  ForkJoinPool pool(2);
  std::atomic<int> leaf{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 8; ++i) {
    outer.push_back([&] {
      // A rule body spawning its own parallel loop (§5.2's
      // embarrassingly-parallel for loops within rules).
      ForkJoinPool::current_pool()->for_each_index(
          16, [&](std::int64_t) { leaf.fetch_add(1); });
    });
  }
  pool.invoke_all(std::move(outer));
  EXPECT_EQ(leaf.load(), 8 * 16);
}

TEST(ForkJoinPool, ExceptionPropagatesToCaller) {
  ForkJoinPool pool(2);
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] { throw std::runtime_error("boom"); });
  tasks.push_back([] {});
  EXPECT_THROW(pool.invoke_all(std::move(tasks)), std::runtime_error);
}

TEST(ForkJoinPool, SubmitAndWaitIdle) {
  ForkJoinPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
}

TEST(ForkJoinPool, SubmitExceptionRethrownAtWaitIdle) {
  ForkJoinPool pool(2);
  pool.submit([] { throw std::runtime_error("fire-and-forget boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The slot is cleared by the rethrow, and later batches are unaffected.
  pool.wait_idle();
  std::vector<std::function<void()>> tasks;
  std::atomic<int> ran{0};
  tasks.push_back([&] { ran.fetch_add(1); });
  pool.invoke_all(std::move(tasks));
  EXPECT_EQ(ran.load(), 1);
}

TEST(ForkJoinPool, ConcurrentBatchesKeepExceptionsSeparate) {
  // Two threads run invoke_all batches on the SAME pool (as sharded
  // engines sharing one pool do): the batch that throws must be the one
  // that rethrows, never its neighbour.
  ForkJoinPool pool(2);
  for (int trial = 0; trial < 20; ++trial) {
    std::atomic<bool> clean_ok{false};
    std::thread thrower([&pool] {
      std::vector<std::function<void()>> tasks;
      tasks.push_back([] { throw std::runtime_error("batch boom"); });
      EXPECT_THROW(pool.invoke_all(std::move(tasks)), std::runtime_error);
    });
    std::thread clean([&pool, &clean_ok] {
      std::vector<std::function<void()>> tasks;
      std::atomic<int> n{0};
      for (int i = 0; i < 8; ++i) tasks.push_back([&n] { n.fetch_add(1); });
      pool.invoke_all(std::move(tasks));
      clean_ok.store(n.load() == 8);
    });
    thrower.join();
    clean.join();
    EXPECT_TRUE(clean_ok.load()) << "trial " << trial;
  }
}

TEST(ForkJoinPool, CurrentPoolVisibleFromWorkers) {
  ForkJoinPool pool(2);
  std::atomic<int> ok{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&] {
      if (ForkJoinPool::current_pool() == &pool &&
          ForkJoinPool::current_worker_index() >= 0) {
        ok.fetch_add(1);
      }
    });
  }
  pool.invoke_all(std::move(tasks));
  EXPECT_EQ(ok.load(), 4);
  EXPECT_EQ(ForkJoinPool::current_pool(), nullptr);
}

TEST(ForkJoinPool, ParallelSumMatchesSequential) {
  ForkJoinPool pool(4);
  constexpr std::int64_t kN = 1 << 18;
  std::vector<std::int64_t> data(kN);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<std::int64_t> sum{0};
  pool.for_each_index(kN, [&](std::int64_t i) {
    sum.fetch_add(data[static_cast<std::size_t>(i)],
                  std::memory_order_relaxed);
  }, /*grain=*/1024);
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ForkJoinPool, ManySmallBatches) {
  ForkJoinPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 4; ++i) tasks.push_back([&] { total.fetch_add(1); });
    pool.invoke_all(std::move(tasks));
  }
  EXPECT_EQ(total.load(), 800);
}

// for_each_index is a participating loop: the caller claims chunks
// itself.  With the pool's only worker held by a task that waits for an
// index only the calling thread can run, the loop must still finish; a
// loop that only dispatched would sit out the holder's 5 s timeout.
TEST(ForkJoinPool, ForEachIndexCallerRunsChunksWhileWorkersAreBusy) {
  using Clock = std::chrono::steady_clock;
  ForkJoinPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> held{false};
  std::atomic<bool> caller_ran{false};
  pool.submit([&] {
    held.store(true);
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
    while (!caller_ran.load() && Clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  while (!held.load()) std::this_thread::yield();
  std::atomic<int> on_caller{0};
  const Clock::time_point start = Clock::now();
  pool.for_each_index(64, [&](std::int64_t) {
    if (std::this_thread::get_id() == caller) {
      on_caller.fetch_add(1);
      caller_ran.store(true);
    }
  });
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
  EXPECT_GT(on_caller.load(), 0);
  pool.wait_idle();
}

// The first exception reaches the caller whichever participant threw it,
// and the pool runs the next loop normally afterwards.
TEST(ForkJoinPool, ForEachIndexExceptionFromCallerOrHelperReachesCaller) {
  using Clock = std::chrono::steady_clock;
  ForkJoinPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  const auto next_loop_sums = [&pool] {
    std::atomic<std::int64_t> sum{0};
    pool.for_each_index(1000, [&](std::int64_t i) { sum.fetch_add(i); });
    return sum.load() == 1000LL * 999 / 2;
  };

  // A chunk the caller ran: both workers are held (for at most 5 s), so
  // every chunk runs on the calling thread.
  std::atomic<bool> release{false};
  std::atomic<int> holding{0};
  for (int w = 0; w < 2; ++w) {
    pool.submit([&] {
      holding.fetch_add(1);
      const Clock::time_point deadline =
          Clock::now() + std::chrono::seconds(5);
      while (!release.load() && Clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
  }
  while (holding.load() < 2) std::this_thread::yield();
  try {
    pool.for_each_index(
        64,
        [&](std::int64_t i) {
          if (i == 5 && std::this_thread::get_id() == caller) {
            throw std::runtime_error("caller");
          }
        },
        /*grain=*/1);
    ADD_FAILURE() << "the caller's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "caller");
  }
  release.store(true);
  pool.wait_idle();
  EXPECT_TRUE(next_loop_sums());

  // A chunk a helper ran: the caller's first index waits until a helper
  // has claimed a chunk, and only helpers throw.
  std::atomic<bool> helper_threw{false};
  try {
    pool.for_each_index(
        64,
        [&](std::int64_t) {
          if (std::this_thread::get_id() != caller) {
            helper_threw.store(true);
            throw std::runtime_error("helper");
          }
          const Clock::time_point deadline =
              Clock::now() + std::chrono::seconds(5);
          while (!helper_threw.load() && Clock::now() < deadline) {
            std::this_thread::yield();
          }
        },
        /*grain=*/1);
    ADD_FAILURE() << "the helper's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "helper");
  }
  EXPECT_TRUE(next_loop_sums());
}

// Back-to-back tiny loops over stack locals: a helper that starts after
// its loop returned must touch neither fn nor the caller's frame, which
// the next iteration reuses (the ASan and TSan jobs run this too).
TEST(ForkJoinPool, BackToBackTinyLoopsLeaveCallerFrameAlone) {
  ForkJoinPool pool(4);
  for (int round = 0; round < 10000; ++round) {
    const int n = 2 + round % 7;
    std::int64_t slots[8] = {};
    std::atomic<int> calls{0};
    pool.for_each_index(
        n,
        [&](std::int64_t i) {
          slots[i] = round;
          calls.fetch_add(1);
        },
        /*grain=*/1);
    ASSERT_EQ(calls.load(), n) << "round " << round;
    for (int i = 0; i < n; ++i) ASSERT_EQ(slots[i], round) << "round " << round;
  }
}

class PoolSizes : public ::testing::TestWithParam<int> {};

TEST_P(PoolSizes, ForEachIsCorrectForAnyPoolSize) {
  ForkJoinPool pool(GetParam());
  std::atomic<std::int64_t> sum{0};
  pool.for_each_index(10000, [&](std::int64_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

INSTANTIATE_TEST_SUITE_P(AllSizes, PoolSizes, ::testing::Values(1, 2, 3, 8));

}  // namespace
}  // namespace jstar::sched
