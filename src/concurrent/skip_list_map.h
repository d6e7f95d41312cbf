// A concurrent ordered map: the C++ stand-in for Java's
// ConcurrentSkipListMap, which the JStar runtime uses for the parallel
// Delta tree and as the default parallel Gamma table structure (§5).
// Here it backs the parallel Gamma default (SkipListSet); the Delta tree
// is a plain ordered map owned by the engine's driving thread.
//
// The algorithm is the lazy lock-based skip list of Herlihy & Shavit
// ("The Art of Multiprocessor Programming", ch. 14):
//   * wait-free contains / ordered traversal,
//   * fine-grained (per-predecessor) locking on insert and erase,
//   * logical deletion via a `marked` flag, then physical unlinking.
//
// Memory reclamation: Java relies on GC; here erased nodes are *retired* to
// a list and physically freed only by collect_garbage() / the destructor.
// collect_garbage() must run with exclusive access, so readers never touch
// freed memory; pop_min() is likewise exclusive-phase-only.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace jstar::concurrent {

template <typename K, typename V, typename Compare = std::less<K>>
class SkipListMap {
 public:
  static constexpr int kMaxLevel = 24;

  SkipListMap() : head_(new Node(K{}, kMaxLevel - 1)) {
    head_->fully_linked.store(true, std::memory_order_release);
  }

  ~SkipListMap() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next[0].load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
    for (Node* r : retired_) delete r;
  }

  SkipListMap(const SkipListMap&) = delete;
  SkipListMap& operator=(const SkipListMap&) = delete;

  /// Finds the value for `key`, inserting `make()` if absent.  Returns a
  /// reference valid until the node is erased *and* garbage-collected.
  /// Thread-safe against concurrent get_or_insert/contains/traversal.
  template <typename Factory>
  V& get_or_insert(const K& key, Factory&& make) {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    const int top = random_level();
    for (;;) {
      const int found_level = find(key, preds, succs);
      if (found_level != -1) {
        Node* found = succs[found_level];
        if (!found->marked.load(std::memory_order_acquire)) {
          while (!found->fully_linked.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          return found->value;
        }
        // Node logically deleted; retry until physically gone.
        std::this_thread::yield();
        continue;
      }
      // Lock the predecessors bottom-up and validate.
      std::unique_lock<std::mutex> locks[kMaxLevel];
      Node* last_locked = nullptr;
      bool valid = true;
      for (int level = 0; valid && level <= top; ++level) {
        Node* pred = preds[level];
        if (pred != last_locked) {
          locks[level] = std::unique_lock<std::mutex>(pred->lock);
          last_locked = pred;
        }
        valid = !pred->marked.load(std::memory_order_acquire) &&
                pred->next[level].load(std::memory_order_acquire) ==
                    succs[level];
      }
      if (!valid) continue;
      Node* node = new Node(key, top);
      node->value = make();
      for (int level = 0; level <= top; ++level) {
        node->next[level].store(succs[level], std::memory_order_relaxed);
      }
      for (int level = 0; level <= top; ++level) {
        preds[level]->next[level].store(node, std::memory_order_release);
      }
      node->fully_linked.store(true, std::memory_order_release);
      size_.fetch_add(1, std::memory_order_relaxed);
      return node->value;
    }
  }

  /// Inserts (key, value) if absent.  Returns true if inserted.
  bool insert(const K& key, V value) {
    bool inserted = false;
    get_or_insert(key, [&] {
      inserted = true;
      return std::move(value);
    });
    return inserted;
  }

  /// Wait-free membership test.
  bool contains(const K& key) const {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    const int found = find(key, preds, succs);
    return found != -1 &&
           succs[found]->fully_linked.load(std::memory_order_acquire) &&
           !succs[found]->marked.load(std::memory_order_acquire);
  }

  /// Returns a pointer to the value for `key`, or nullptr.  The pointer is
  /// stable until the node is erased and garbage-collected.
  V* find_value(const K& key) const {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    const int found = find(key, preds, succs);
    if (found == -1) return nullptr;
    Node* n = succs[found];
    if (!n->fully_linked.load(std::memory_order_acquire) ||
        n->marked.load(std::memory_order_acquire)) {
      return nullptr;
    }
    return &n->value;
  }

  /// Erases `key` (lazy: mark then unlink).  Returns true if erased.
  bool erase(const K& key) {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    Node* victim = nullptr;
    bool is_marked = false;
    int top = -1;
    for (;;) {
      const int found_level = find(key, preds, succs);
      if (found_level != -1) victim = succs[found_level];
      if (is_marked ||
          (found_level != -1 &&
           victim->fully_linked.load(std::memory_order_acquire) &&
           victim->top_level == found_level &&
           !victim->marked.load(std::memory_order_acquire))) {
        if (!is_marked) {
          top = victim->top_level;
          victim->lock.lock();
          if (victim->marked.load(std::memory_order_acquire)) {
            victim->lock.unlock();
            return false;
          }
          victim->marked.store(true, std::memory_order_release);
          is_marked = true;
        }
        std::unique_lock<std::mutex> locks[kMaxLevel];
        Node* last_locked = nullptr;
        bool valid = true;
        for (int level = 0; valid && level <= top; ++level) {
          Node* pred = preds[level];
          if (pred != last_locked) {
            locks[level] = std::unique_lock<std::mutex>(pred->lock);
            last_locked = pred;
          }
          valid = !pred->marked.load(std::memory_order_acquire) &&
                  pred->next[level].load(std::memory_order_acquire) == victim;
        }
        if (!valid) continue;
        for (int level = top; level >= 0; --level) {
          preds[level]->next[level].store(
              victim->next[level].load(std::memory_order_acquire),
              std::memory_order_release);
        }
        victim->lock.unlock();
        retire(victim);
        size_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      return false;
    }
  }

  /// EXCLUSIVE-PHASE ONLY.  Removes and returns the minimum entry.
  /// The caller must guarantee no concurrent operations (the engine calls
  /// this from the single coordinator between parallel batches).
  bool pop_min(K& key_out, V& value_out) {
    Node* first = head_->next[0].load(std::memory_order_acquire);
    if (first == nullptr) return false;
    for (int level = 0; level <= first->top_level; ++level) {
      head_->next[level].store(first->next[level].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
    }
    key_out = first->key;
    value_out = std::move(first->value);
    delete first;
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// EXCLUSIVE-PHASE ONLY.  Peek at the minimum key.
  const K* peek_min() const {
    Node* first = head_->next[0].load(std::memory_order_acquire);
    return first == nullptr ? nullptr : &first->key;
  }

  /// Ordered traversal of all live entries.  Safe concurrently with
  /// inserts; entries inserted during traversal may or may not be seen.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Node* n = head_->next[0].load(std::memory_order_acquire); n != nullptr;
         n = n->next[0].load(std::memory_order_acquire)) {
      if (n->fully_linked.load(std::memory_order_acquire) &&
          !n->marked.load(std::memory_order_acquire)) {
        fn(n->key, n->value);
      }
    }
  }

  /// Ordered traversal of entries with lo <= key < hi.
  template <typename Fn>
  void for_range(const K& lo, const K& hi, Fn&& fn) const {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    find(lo, preds, succs);
    for (Node* n = succs[0]; n != nullptr && less_(n->key, hi);
         n = n->next[0].load(std::memory_order_acquire)) {
      if (n->fully_linked.load(std::memory_order_acquire) &&
          !n->marked.load(std::memory_order_acquire)) {
        fn(n->key, n->value);
      }
    }
  }

  /// Ordered traversal of entries with lo <= key, to the end (the
  /// open-above form of for_range, used by unbounded range plans).
  template <typename Fn>
  void for_each_from(const K& lo, Fn&& fn) const {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    find(lo, preds, succs);
    for (Node* n = succs[0]; n != nullptr;
         n = n->next[0].load(std::memory_order_acquire)) {
      if (n->fully_linked.load(std::memory_order_acquire) &&
          !n->marked.load(std::memory_order_acquire)) {
        fn(n->key, n->value);
      }
    }
  }

  std::size_t size() const {
    const auto s = size_.load(std::memory_order_relaxed);
    return s > 0 ? static_cast<std::size_t>(s) : 0;
  }

  bool empty() const {
    return head_->next[0].load(std::memory_order_acquire) == nullptr;
  }

  /// EXCLUSIVE-PHASE ONLY.  Frees retired (erased) nodes.
  void collect_garbage() {
    std::lock_guard<std::mutex> lk(retired_mu_);
    for (Node* r : retired_) delete r;
    retired_.clear();
  }

 private:
  struct Node {
    Node(const K& k, int top)
        : key(k), top_level(top), next(static_cast<std::size_t>(top + 1)) {}
    K key;
    V value{};
    const int top_level;
    std::atomic<bool> marked{false};
    std::atomic<bool> fully_linked{false};
    std::mutex lock;
    std::vector<std::atomic<Node*>> next;
  };

  bool equal(const K& a, const K& b) const {
    return !less_(a, b) && !less_(b, a);
  }

  /// Fills preds/succs for every level; returns the highest level at which
  /// `key` was found, or -1.
  int find(const K& key, Node** preds, Node** succs) const {
    int found = -1;
    Node* pred = head_;
    for (int level = kMaxLevel - 1; level >= 0; --level) {
      Node* curr = pred->next[level].load(std::memory_order_acquire);
      while (curr != nullptr && less_(curr->key, key)) {
        pred = curr;
        curr = pred->next[level].load(std::memory_order_acquire);
      }
      if (found == -1 && curr != nullptr && equal(curr->key, key)) {
        found = level;
      }
      preds[level] = pred;
      succs[level] = curr;
    }
    return found;
  }

  static int random_level() {
    thread_local SplitMix64 rng(
        0x5eed ^ std::hash<std::thread::id>{}(std::this_thread::get_id()));
    int level = 0;
    // Geometric distribution with p = 1/2, capped below kMaxLevel.
    std::uint64_t bits = rng.next();
    while ((bits & 1) != 0 && level < kMaxLevel - 1) {
      ++level;
      bits >>= 1;
    }
    return level;
  }

  void retire(Node* n) {
    std::lock_guard<std::mutex> lk(retired_mu_);
    retired_.push_back(n);
  }

  Node* head_;
  Compare less_{};
  std::atomic<std::int64_t> size_{0};
  mutable std::mutex retired_mu_;
  std::vector<Node*> retired_;
};

}  // namespace jstar::concurrent
