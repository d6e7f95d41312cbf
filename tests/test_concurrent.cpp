// Tests for the concurrent containers: the lazy skip-list map/set (the
// ConcurrentSkipListMap/Set stand-ins behind the parallel Gamma default)
// and the striped hash map/set (ConcurrentHashMap stand-in, §6.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "concurrent/skip_list_map.h"
#include "concurrent/skip_list_set.h"
#include "concurrent/striped_hash_map.h"
#include "util/rng.h"

namespace jstar::concurrent {
namespace {

TEST(SkipListMap, InsertAndFind) {
  SkipListMap<int, int> m;
  EXPECT_TRUE(m.insert(5, 50));
  EXPECT_TRUE(m.insert(3, 30));
  EXPECT_FALSE(m.insert(5, 99));  // set semantics: duplicate key rejected
  EXPECT_TRUE(m.contains(5));
  EXPECT_TRUE(m.contains(3));
  EXPECT_FALSE(m.contains(4));
  ASSERT_NE(m.find_value(5), nullptr);
  EXPECT_EQ(*m.find_value(5), 50);  // first value wins
  EXPECT_EQ(m.find_value(4), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(SkipListMap, GetOrInsertCallsFactoryOnce) {
  SkipListMap<int, int> m;
  int calls = 0;
  int& v1 = m.get_or_insert(7, [&] { ++calls; return 70; });
  int& v2 = m.get_or_insert(7, [&] { ++calls; return 71; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(&v1, &v2);
  EXPECT_EQ(v1, 70);
}

TEST(SkipListMap, OrderedTraversal) {
  SkipListMap<int, int> m;
  for (int k : {9, 1, 5, 3, 7}) m.insert(k, k * 10);
  std::vector<int> keys;
  m.for_each([&](const int& k, const int&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(SkipListMap, RangeScan) {
  SkipListMap<int, int> m;
  for (int k = 0; k < 20; ++k) m.insert(k, k);
  std::vector<int> keys;
  m.for_range(5, 12, [&](const int& k, const int&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<int>{5, 6, 7, 8, 9, 10, 11}));
}

TEST(SkipListMap, RangeScanEmptyWindow) {
  SkipListMap<int, int> m;
  m.insert(1, 1);
  m.insert(10, 10);
  int count = 0;
  m.for_range(2, 9, [&](const int&, const int&) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(SkipListMap, EraseThenReinsert) {
  SkipListMap<int, int> m;
  m.insert(4, 40);
  EXPECT_TRUE(m.erase(4));
  EXPECT_FALSE(m.erase(4));
  EXPECT_FALSE(m.contains(4));
  EXPECT_TRUE(m.insert(4, 44));
  EXPECT_EQ(*m.find_value(4), 44);
  m.collect_garbage();
  EXPECT_TRUE(m.contains(4));
}

TEST(SkipListMap, PopMinDrainsInOrder) {
  SkipListMap<int, int> m;
  for (int k : {5, 2, 8, 1}) m.insert(k, k);
  int key, value;
  std::vector<int> order;
  while (m.pop_min(key, value)) order.push_back(key);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5, 8}));
  EXPECT_TRUE(m.empty());
}

TEST(SkipListMap, PeekMin) {
  SkipListMap<int, int> m;
  EXPECT_EQ(m.peek_min(), nullptr);
  m.insert(9, 9);
  m.insert(2, 2);
  ASSERT_NE(m.peek_min(), nullptr);
  EXPECT_EQ(*m.peek_min(), 2);
}

TEST(SkipListMap, ConcurrentDistinctInserts) {
  SkipListMap<int, int> m;
  constexpr int kPerThread = 5000;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        m.insert(t * kPerThread + i, i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(m.size(), static_cast<std::size_t>(kPerThread * kThreads));
  // Order must be intact after the concurrent phase.
  int prev = -1, count = 0;
  m.for_each([&](const int& k, const int&) {
    EXPECT_GT(k, prev);
    prev = k;
    ++count;
  });
  EXPECT_EQ(count, kPerThread * kThreads);
}

TEST(SkipListMap, ConcurrentCollidingInsertsKeepSetSemantics) {
  SkipListMap<int, int> m;
  constexpr int kKeys = 500;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kKeys; ++i) {
        if (m.insert(i, i)) wins.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), kKeys);  // each key inserted exactly once
  EXPECT_EQ(m.size(), static_cast<std::size_t>(kKeys));
}

TEST(SkipListMap, ConcurrentGetOrInsertSingleFactoryWinner) {
  SkipListMap<int, std::int64_t> m;
  std::atomic<int> factory_calls{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        std::int64_t& v = m.get_or_insert(i, [&] {
          factory_calls.fetch_add(1);
          return static_cast<std::int64_t>(i) * 3;
        });
        EXPECT_EQ(v, static_cast<std::int64_t>(i) * 3);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(factory_calls.load(), 200);
}

TEST(SkipListMap, MixedInsertEraseStress) {
  SkipListMap<int, int> m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 3000; ++i) {
        const int k = static_cast<int>(rng.next_below(256));
        if (rng.next() & 1) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Whatever survived must still be a sorted set of distinct keys.
  std::vector<int> keys;
  m.for_each([&](const int& k, const int&) { keys.push_back(k); });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
  m.collect_garbage();
}

TEST(SkipListSet, BasicSetOperations) {
  SkipListSet<int> s;
  EXPECT_TRUE(s.insert(3));
  EXPECT_FALSE(s.insert(3));
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.erase(3));
  EXPECT_FALSE(s.contains(3));
  EXPECT_TRUE(s.empty());
}

TEST(SkipListSet, PopMinAndRange) {
  SkipListSet<int> s;
  for (int v : {4, 1, 3, 2}) s.insert(v);
  std::vector<int> range;
  s.for_range(2, 4, [&](const int& v) { range.push_back(v); });
  EXPECT_EQ(range, (std::vector<int>{2, 3}));
  int out;
  ASSERT_TRUE(s.pop_min(out));
  EXPECT_EQ(out, 1);
  EXPECT_EQ(s.size(), 3u);
}

TEST(StripedHashMap, InsertLookupErase) {
  StripedHashMap<int, std::string> m;
  EXPECT_TRUE(m.insert(1, "one"));
  EXPECT_FALSE(m.insert(1, "uno"));
  std::string out;
  ASSERT_TRUE(m.lookup(1, out));
  EXPECT_EQ(out, "one");
  EXPECT_FALSE(m.lookup(2, out));
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.size(), 0u);
}

TEST(StripedHashMap, GetOrInsertStableReference) {
  StripedHashMap<int, int> m;
  int& a = m.get_or_insert(9, [] { return 90; });
  int& b = m.get_or_insert(9, [] { return 91; });
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a, 90);
}

TEST(StripedHashMap, UpdateUnderLock) {
  StripedHashMap<int, int> m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        m.update(i % 10, [](int& v) { ++v; });
      }
    });
  }
  for (auto& th : threads) th.join();
  std::int64_t total = 0;
  m.for_each([&](const int&, const int& v) { total += v; });
  EXPECT_EQ(total, 4000);
}

TEST(StripedHashMap, ConcurrentInsertDistinct) {
  StripedHashMap<int, int> m(32);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) m.insert(t * 2000 + i, i);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(m.size(), 8000u);
}

TEST(StripedHashSet, SetSemanticsUnderContention) {
  StripedHashSet<int> s(16);
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (s.insert(i)) wins.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), 1000);
  EXPECT_EQ(s.size(), 1000u);
  EXPECT_TRUE(s.contains(999));
  EXPECT_FALSE(s.contains(1000));
}

}  // namespace
}  // namespace jstar::concurrent
