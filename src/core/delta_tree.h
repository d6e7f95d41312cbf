// The Delta set (§3, §5): a multi-level priority queue over pending tuples,
// ordered by the causality ordering, with set-semantics deduplication.
//
// One ordered map — the java.util.TreeMap analogue of the paper's
// -sequential code — serves every strategy.  Only the thread that drives
// Engine::run()/step() touches it: initial puts, sharded mail and stream
// deliveries run on that thread, and rule puts reach the tree through the
// emit buffers that thread flushes after each fire-phase join
// (core/table.h).  So the tree takes no lock.
//
// Footnote 5 of the paper explains why this is a map and not a plain
// priority queue: duplicate tuples must be removed as they are inserted.
// The per-table dedup sets live inside the BatchNode slices.
#pragma once

#include <map>
#include <memory>

#include "core/batch.h"
#include "core/key.h"

namespace jstar {

class DeltaTree {
 public:
  /// Returns the batch node for `key`, creating it if absent.
  BatchNode& get_or_insert(const DeltaKey& key) {
    std::unique_ptr<BatchNode>& node = map_[key];
    if (!node) node = std::make_unique<BatchNode>();
    return *node;
  }

  /// Removes the minimal batch; returns false when empty.
  bool pop_min(DeltaKey& key_out, std::unique_ptr<BatchNode>& node_out) {
    if (map_.empty()) return false;
    auto it = map_.begin();
    key_out = it->first;
    node_out = std::move(it->second);
    map_.erase(it);
    return true;
  }

  bool empty() const { return map_.empty(); }
  std::size_t batch_count() const { return map_.size(); }

  /// A no-op (nothing is retired for deferred reclamation), kept because
  /// the end-to-end benchmark (e2ebench/) still calls it.
  void collect_garbage() {}

 private:
  std::map<DeltaKey, std::unique_ptr<BatchNode>, DeltaKeyLess> map_;
};

}  // namespace jstar
