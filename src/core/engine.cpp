#include "core/engine.h"

#include <algorithm>

namespace jstar {

namespace {

/// Snapshot of the emission counters summed over a table set, for
/// RunReport deltas (run() may be called repeatedly on one database).
struct EmitCounters {
  std::int64_t flushes = 0;
  std::int64_t buffered = 0;
  std::int64_t inline_batches = 0;
};

EmitCounters emit_counters(
    const std::vector<std::unique_ptr<TableBase>>& tables) {
  EmitCounters out;
  for (const auto& t : tables) {
    const TableStats& s = t->stats();
    out.flushes += s.emit_flushes.load(std::memory_order_relaxed);
    out.buffered += s.emit_buffered.load(std::memory_order_relaxed);
    out.inline_batches += s.inline_batches.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace

Engine::Engine(EngineOptions opts) : opts_(std::move(opts)) {
  JSTAR_CHECK_MSG(opts_.threads >= 1, "threads must be >= 1");
}

Engine::Engine(EngineOptions opts, sched::ForkJoinPool* shared_pool)
    : opts_(std::move(opts)),
      external_pool_(opts_.sequential ? nullptr : shared_pool) {
  JSTAR_CHECK_MSG(opts_.threads >= 1, "threads must be >= 1");
}

Engine::~Engine() = default;

void Engine::prepare() {
  if (prepared_) return;
  prepared_ = true;
  if (!opts_.sequential && external_pool_ == nullptr) {
    pool_ = std::make_unique<sched::ForkJoinPool>(opts_.threads);
  }
  edges_.resize(tables_.size());
  TableBase::RuntimeEnv env;
  env.delta = &delta_;
  env.pool = pool();
  env.edges = &edges_;
  env.orders = &orders_;
  env.causality_checks = opts_.causality_checks;
  env.parallel = !opts_.sequential;
  env.task_per_rule = opts_.task_per_rule;
  env.epoch = &epoch_;
  env.simd = opts_.simd;
  env.morsels = opts_.morsels;
  // configure() registers each table's orderby literals, so it must run
  // before the order relation is frozen into ranks.
  for (auto& t : tables_) {
    t->configure(env, opts_.no_delta.count(t->name()) != 0,
                 opts_.no_gamma.count(t->name()) != 0);
  }
  orders_.freeze();
}

void Engine::process_batch(const DeltaKey& key, BatchNode& node,
                           RunReport& report) {
  // Phase A: move every tuple of this equivalence class into Gamma (all
  // tables), recording freshness.  Running A for all tables before any B
  // makes positive queries at timestamp == now deterministic: every tuple
  // of the class is visible before any rule of the class runs.
  const std::size_t slots = node.per_table.size();
  if (keep_.size() < slots) keep_.resize(slots);
  std::int64_t batch_tuples = 0;
  for (std::size_t i = 0; i < slots; ++i) {
    if (!node.per_table[i]) continue;
    batch_tuples += static_cast<std::int64_t>(node.per_table[i]->count());
    tables_[i]->batch_insert_phase(*node.per_table[i], keep_[i]);
  }
  // Phase B: effects + rule firing (§5), on this thread until the phase
  // proves big enough to share with the pool (lazy_split, core/table.h).
  for (std::size_t i = 0; i < slots; ++i) {
    if (!node.per_table[i]) continue;
    tables_[i]->batch_fire_phase(*node.per_table[i], keep_[i], key);
  }
  // The batch's rule emissions sit in per-thread buffers; the fire-phase
  // join above is the happens-before edge that hands them to this
  // thread, which bulk-appends them before the next pop_min.
  flush_emits();
  ++report.batches;
  report.tuples += batch_tuples;
  report.max_batch = std::max(report.max_batch, batch_tuples);
}

void Engine::flush_emits() {
  for (auto& t : tables_) t->flush_emits();
}

bool Engine::step(RunReport* report) {
  prepare();
  // Puts made through a hand-built RuleCtx since the last batch are
  // still buffered; surface them before deciding whether Delta is empty.
  flush_emits();
  DeltaKey key;
  std::unique_ptr<BatchNode> node;
  if (!delta_.pop_min(key, node)) return false;
  const EmitCounters before = emit_counters(tables_);
  RunReport scratch;
  RunReport& out = report != nullptr ? *report : scratch;
  process_batch(key, *node, out);
  const EmitCounters after = emit_counters(tables_);
  out.emit_flushes += after.flushes - before.flushes;
  out.emit_buffered += after.buffered - before.buffered;
  out.inline_batches += after.inline_batches - before.inline_batches;
  return true;
}

std::int64_t Engine::begin_epoch() {
  prepare();
  const std::int64_t e = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (auto& t : tables_) t->retire_epochs(e);
  return e;
}

RunReport Engine::run() {
  prepare();
  RunReport report;
  WallTimer timer;
  // Surface any puts buffered outside a run (hand-built RuleCtx callers)
  // before the first pop decides whether there is work at all.
  flush_emits();
  const EmitCounters before = emit_counters(tables_);
  DeltaKey key;
  std::unique_ptr<BatchNode> node;
  while (delta_.pop_min(key, node)) {
    process_batch(key, *node, report);
    node.reset();
  }
  const EmitCounters after = emit_counters(tables_);
  report.emit_flushes = after.flushes - before.flushes;
  report.emit_buffered = after.buffered - before.buffered;
  report.inline_batches = after.inline_batches - before.inline_batches;
  report.seconds = timer.seconds();
  return report;
}

}  // namespace jstar
