// Delta-tree leaves: the "sets of tuples" in one causality equivalence
// class (§5).  A BatchNode holds, per table, the deduplicated tuples whose
// DeltaKey equals the node's key; everything in one node may execute in
// parallel.
#pragma once

#include <memory>
#include <vector>

namespace jstar {

/// Type-erased per-table slice of a batch; the concrete type is
/// Table<T>::BatchVec.
class BatchVecBase {
 public:
  virtual ~BatchVecBase() = default;
  virtual std::size_t count() const = 0;
};

/// One Delta-tree leaf.  Like the tree itself it belongs to the thread
/// that drives the engine: that thread fills it (initial puts, emit
/// flushes) and consumes it after pop_min, so it needs no lock.
struct BatchNode {
  /// Indexed by table id; slots are created lazily.
  std::vector<std::unique_ptr<BatchVecBase>> per_table;
};

}  // namespace jstar
