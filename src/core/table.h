// Tables, tuples and rules — the programmer-facing core of the jstar
// runtime (§3).
//
// A JStar `table` declaration becomes a TableDecl<T> where T is a plain
// immutable struct (the "immutable Java object with a fixed set of named
// fields").  The declaration carries:
//   * the orderby list        — lit/seq/par levels (§4, §5),
//   * a hash function         — set-semantics dedup needs it,
//   * an optional primary key — the `->` arrow in table declarations,
//   * an optional store factory — the §1.4 late data-structure commitment,
//   * an optional effect      — external action when the tuple leaves the
//                               Delta set (§3: "requests for external
//                               actions ... performed when those tuples are
//                               taken out of the Delta Set").
//
// Rules (`foreach (T t) {...}`) are callables fired with a RuleCtx that
// carries the current causality timestamp; RuleCtx::put is checked
// dynamically against the law of causality (§4).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "concurrent/striped_hash_map.h"
#include "core/batch.h"
#include "core/column_store.h"
#include "core/delta_tree.h"
#include "core/flat_store.h"
#include "core/gamma_store.h"
#include "core/key.h"
#include "core/query.h"
#include "core/query_plan.h"
#include "core/window_store.h"
#include "core/orderby.h"
#include "core/simd.h"
#include "core/stats.h"
#include "sched/fork_join_pool.h"
#include "util/check.h"

namespace jstar {

/// Thrown when a rule violates the law of causality at runtime: it put a
/// tuple whose timestamp is strictly before the trigger's timestamp.
class CausalityViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Records the dynamic table→table dataflow (which tables each trigger's
/// rules put into), feeding the viz module's Fig-7-style graphs.
class EdgeMatrix {
 public:
  void resize(std::size_t tables) {
    counts_ = std::vector<std::atomic<std::int64_t>>(tables * tables);
    n_ = tables;
  }
  void record(int from, int to) {
    if (from < 0 || n_ == 0) return;
    counts_[static_cast<std::size_t>(from) * n_ + static_cast<std::size_t>(to)]
        .fetch_add(1, std::memory_order_relaxed);
  }
  std::int64_t count(int from, int to) const {
    if (n_ == 0) return 0;
    return counts_[static_cast<std::size_t>(from) * n_ +
                   static_cast<std::size_t>(to)]
        .load(std::memory_order_relaxed);
  }
  std::size_t tables() const { return n_; }

 private:
  std::vector<std::atomic<std::int64_t>> counts_;
  std::size_t n_ = 0;
};

/// Execution context passed to every rule invocation.  `now` is the
/// causality timestamp of the trigger tuple's batch.
class RuleCtx {
 public:
  RuleCtx(DeltaKey now, int from_table, EdgeMatrix* edges,
          std::int64_t epoch = 0, int sign = +1)
      : now_(std::move(now)), from_table_(from_table), edges_(edges),
        epoch_(epoch), sign_(sign) {}

  /// The causality timestamp the rule is executing at.
  const DeltaKey& now() const { return now_; }
  int from_table() const { return from_table_; }
  EdgeMatrix* edges() const { return edges_; }
  /// True for initial puts performed before the engine starts running.
  bool initial() const { return now_.empty(); }
  /// The streaming epoch this rule fires in (Engine::begin_epoch clock);
  /// 0 for one-shot batch runs.  Causality timestamps stay per-epoch local:
  /// mail and stream ingestion enter as initial puts between runs, so an
  /// epoch's keys never compare against a previous epoch's.
  std::int64_t epoch() const { return epoch_; }
  /// +1 when the rule re-runs for an inserted trigger, -1 for a retracted
  /// one (delta-correct recomputation: the same rule body is replayed and
  /// every put it makes is multiplied by this sign, so the downstream
  /// facts a retracted trigger once derived are retracted in turn).
  int sign() const { return sign_; }
  bool retraction() const { return sign_ < 0; }

 private:
  DeltaKey now_;
  int from_table_;
  EdgeMatrix* edges_;
  std::int64_t epoch_;
  int sign_;
};

// ---------------------------------------------------------------------------

/// Declarative description of a table.  Build one, then register it with
/// Engine::table().  All setters return *this for chaining.
template <typename T>
class TableDecl {
 public:
  using StoreFactory =
      std::function<std::unique_ptr<GammaStore<T>>(bool parallel)>;

  explicit TableDecl(std::string name) : name_(std::move(name)) {}

  /// Adds a capitalised literal level (ordered by `order` declarations).
  TableDecl& orderby_lit(std::string lit_name) {
    spec_.push_back({OrderByLevel::Kind::Lit, lit_name});
    levels_.push_back(Level{LevelKind::Lit, std::move(lit_name), {}});
    return *this;
  }

  /// Adds a `seq` level: tuples are ordered by this field's value.
  TableDecl& orderby_seq(std::string field_name,
                         std::function<std::int64_t(const T&)> getter) {
    spec_.push_back({OrderByLevel::Kind::Seq, field_name});
    levels_.push_back(Level{LevelKind::Seq, std::move(field_name),
                            std::move(getter)});
    return *this;
  }

  /// Convenience overload for an integral member pointer.
  template <typename M>
  TableDecl& orderby_seq(std::string field_name, M T::*member) {
    return orderby_seq(std::move(field_name), [member](const T& t) {
      return static_cast<std::int64_t>(t.*member);
    });
  }

  /// Adds a `par` level: tuples differing only here are unordered, hence
  /// executable in parallel.  Recorded for documentation/viz only.
  TableDecl& orderby_par(std::string field_name) {
    spec_.push_back({OrderByLevel::Kind::Par, field_name});
    levels_.push_back(Level{LevelKind::Par, std::move(field_name), {}});
    return *this;
  }

  /// Hash over the tuple's fields, required for set-semantics dedup.
  /// Use jstar::hash_fields(t.a, t.b, ...).
  TableDecl& hash(std::function<std::size_t(const T&)> h) {
    hash_ = std::move(h);
    return *this;
  }

  /// Declares a primary key (the `->` in table declarations): at most one
  /// tuple per key value may exist; later conflicting tuples are rejected
  /// and counted in stats().pk_conflicts.
  TableDecl& primary_key(std::function<std::int64_t(const T&)> pk) {
    pk_ = std::move(pk);
    return *this;
  }

  /// Member-pointer form: additionally records the field's identity so the
  /// query planner can route query::eq on this field through the pk index
  /// (the O(1) PkProbe access path).
  template <typename M>
  TableDecl& primary_key(M T::*member) {
    pk_tag_ = query::field_tag(member);
    return primary_key(std::function<std::int64_t(const T&)>(
        [member](const T& t) { return static_cast<std::int64_t>(t.*member); }));
  }

  /// Overrides the Gamma data structure (the §1.4 / §6.2 tuning hook).
  TableDecl& store_factory(StoreFactory f) {
    store_factory_ = std::move(f);
    return *this;
  }

  /// §6.4 native-array preset: swaps the Gamma structure for the sorted
  /// contiguous-array substrate (core/flat_store.h).  Still ordered, so
  /// range plans route through it; scans run over one cache-contiguous
  /// span via the chunked pushdown.  Reuses this table's hash() for the
  /// staging buffer, and composes with retain(N): the flat store then
  /// epoch-tags tuples and compacts in place at epoch boundaries.
  TableDecl& flat_store() {
    preset_ = StorePreset::FlatOrdered;
    return *this;
  }

  /// §6.4 open-addressing preset (core/flat_store.h): power-of-two
  /// capacity, linear probing, contiguous slot runs for chunked scans.
  /// Unordered — pair with secondary indexes when the query key is fully
  /// known.  With retain(N) this falls back to the bucketed window store
  /// (open addressing cannot drop whole epochs without a rebuild).
  TableDecl& flat_hash_store() {
    preset_ = StorePreset::FlatHash;
    return *this;
  }

  /// Columnar (SoA) preset (core/column_store.h): shreds tuples into
  /// per-field contiguous columns.  `members` must name *every* field of
  /// T (checked at runtime by round-tripping early inserts), in any
  /// order; field types must be arithmetic.  Still ordered by the tuple's
  /// operator<, so range plans route here unchanged — and residual full
  /// scans over exact predicates on these fields compile to vectorized
  /// per-column kernels (count_if/fold/min_by never materialise tuples).
  /// Composes with retain(N): rows are epoch-tagged and every column is
  /// compacted in place at epoch boundaries.
  template <typename... Ms>
  TableDecl& columns(Ms T::*... members) {
    static_assert(sizeof...(Ms) >= 1, "columns() needs at least one field");
    preset_ = StorePreset::Columnar;
    columnar_factory_ = [members...](const std::atomic<std::int64_t>* clock,
                                     std::int64_t keep,
                                     std::function<std::size_t(const T&)> h)
        -> std::unique_ptr<GammaStore<T>> {
      if (keep >= 1) {
        return std::make_unique<ColumnStore<T, FnHash<T>, Ms T::*...>>(
            clock, keep, FnHash<T>{std::move(h)}, members...);
      }
      return std::make_unique<ColumnStore<T, FnHash<T>, Ms T::*...>>(
          FnHash<T>{std::move(h)}, members...);
    };
    return *this;
  }

  /// Manual lifetime hint (Fig 3 step 4, §6.6): tuples carry a
  /// nondecreasing epoch in `epoch_of`, and rules only query the most
  /// recent `keep` epochs; older tuples are retired from Gamma as the
  /// maximum epoch advances.  Median's two-iteration array is
  /// retain_epochs(iter, 2).
  /// Accepts a lambda or a pointer-to-member (std::function invokes both).
  /// The store is built at configure() time so it can reuse this table's
  /// hash() function for its buckets.
  TableDecl& retain_epochs(std::function<std::int64_t(const T&)> epoch_of,
                           std::int64_t keep) {
    retain_epoch_of_ = std::move(epoch_of);
    retain_keep_ = keep;
    return *this;
  }

  /// Streaming lifetime hint — `retain(N)`: tuples live for the N most
  /// recent *engine* epochs (the Engine::begin_epoch clock that
  /// src/stream/streaming.h advances once per ingestion slice) and are
  /// retired at the next epoch boundary after they fall out of the window.
  /// The middle ground between full Gamma (retain everything forever —
  /// unbounded under an infinite stream) and -noGamma (retain nothing):
  /// rules may still join against the recent past, but the heap stays
  /// proportional to the window.  Unlike retain_epochs, tuples need no
  /// epoch field; arrival time is the epoch.  Tables with a primary key
  /// keep their pk index forever — combine with care.
  TableDecl& retain(std::int64_t keep) {
    retain_engine_keep_ = keep;
    return *this;
  }

  /// External side effect executed once per tuple when it leaves the Delta
  /// set (the kosher way to print, §6.2 footnote 8).
  TableDecl& effect(std::function<void(const T&)> e) {
    effect_ = std::move(e);
    return *this;
  }

  /// Opts the table into counted (multiset) Gamma semantics, the
  /// prerequisite for Table::retract / Table::upsert (ROADMAP item 4).
  /// Each tuple carries an insertion multiplicity — the signed sum of
  /// its puts and retracts — and is present iff the count is >= 1.
  /// Rules fire exactly on presence transitions: once with sign +1 when
  /// the count first goes positive, once with sign -1 when it returns to
  /// zero, and the rule's own puts inherit the trigger's sign — so a
  /// retraction re-derives exactly the affected downstream cone.  Counts
  /// are commutative, which is what keeps sequential, BSP and async
  /// sharded execution confluent under interleaved insert/retract
  /// schedules.  A retract arriving before its insert records a debt
  /// (count -1) that annihilates the later insert.  Must be declared up
  /// front: enabling counting after tuples exist would miscount them.
  /// Incompatible with -noGamma, -noDelta and retain_epochs; the
  /// configured store must support erase() (every built-in substrate
  /// does).
  TableDecl& counted() {
    counted_ = true;
    return *this;
  }

  /// External side effect executed once per tuple when a retraction
  /// removes it from Gamma (the counterpart of effect() for the -1
  /// transition).  Requires counted().
  TableDecl& retract_effect(std::function<void(const T&)> e) {
    retract_effect_ = std::move(e);
    return *this;
  }

  const std::string& name() const { return name_; }

 private:
  template <typename U>
  friend class Table;

  enum class LevelKind { Lit, Seq, Par };
  enum class StorePreset { None, FlatOrdered, FlatHash, Columnar };
  /// Built by columns(): configure() calls it with the engine clock, the
  /// retain(N) window width (0 when unwindowed), and the table's hash.
  using ColumnarFactory = std::function<std::unique_ptr<GammaStore<T>>(
      const std::atomic<std::int64_t>*, std::int64_t,
      std::function<std::size_t(const T&)>)>;
  struct Level {
    LevelKind kind;
    std::string name;
    std::function<std::int64_t(const T&)> getter;  // Seq only
  };

  std::string name_;
  std::vector<OrderByLevel> spec_;
  std::vector<Level> levels_;
  std::function<std::size_t(const T&)> hash_;
  std::function<std::int64_t(const T&)> pk_;
  const void* pk_tag_ = nullptr;  // set by the member-pointer overload
  StoreFactory store_factory_;
  StorePreset preset_ = StorePreset::None;  // flat/columnar presets
  ColumnarFactory columnar_factory_;        // set by columns()
  std::function<void(const T&)> effect_;
  std::function<void(const T&)> retract_effect_;
  std::function<std::int64_t(const T&)> retain_epoch_of_;  // lifetime hint
  std::int64_t retain_keep_ = 0;                           // 0 = retain all
  std::int64_t retain_engine_keep_ = 0;  // retain(N): engine-epoch window
  bool counted_ = false;  // multiset Gamma: retract/upsert enabled
};

// ---------------------------------------------------------------------------

/// How long one batch phase runs on the coordinator before the rest of
/// its items are shared with the pool.  A pool round trip (enqueue,
/// worker wake-up, join) measured ~3 µs with hot workers and 30-45 µs
/// after 0.5 ms idle on a 4-vCPU KVM host (bench_rule_fire records it):
/// a phase that has run two to three idle round trips' worth of work
/// alone is worth splitting, and most batches of deep causality chains
/// (Dijkstra's wavefronts) end well before it.
inline constexpr std::chrono::microseconds kPhaseSplitBudget{100};

/// Lazy splitting (Tzannes et al., "Lazy Binary Splitting", PPoPP 2010)
/// of one batch phase: runs fn(i) for every i in [0, n), first on the
/// calling thread, and once that inline slice has run past
/// kPhaseSplitBudget with items left, hands the rest to
/// pool->for_each_index (chunk size `grain`, 0 = auto), which the caller
/// joins.  The clock is read after items 1, 5, 13 and then every 16
/// items, so one expensive first item splits the phase right after it
/// while cheap items share a clock read.  Returns whether every item ran
/// inline; a null pool (sequential mode) or a single item always does.
template <typename Fn>
bool lazy_split(sched::ForkJoinPool* pool, std::int64_t n, const Fn& fn,
                std::int64_t grain = 0) {
  if (pool == nullptr || n <= 1) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return true;
  }
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::int64_t check = 1;  // item count at which the clock is next read
  std::int64_t stride = 2;
  for (std::int64_t i = 0; i < n;) {
    fn(i++);
    if (i != check || i == n) continue;
    if (Clock::now() - start > kPhaseSplitBudget) {
      pool->for_each_index(
          n - i, [&fn, i](std::int64_t j) { fn(i + j); }, grain);
      return false;
    }
    stride = std::min<std::int64_t>(stride * 2, 16);
    check += stride;
  }
  return true;
}

// ---------------------------------------------------------------------------

/// Type-erased table handle used by the engine loop and the viz module.
class TableBase {
 public:
  virtual ~TableBase() = default;

  const std::string& name() const { return name_; }
  int id() const { return id_; }
  TableStats& stats() { return stats_; }
  const TableStats& stats() const { return stats_; }

  bool no_delta() const { return no_delta_; }
  bool no_gamma() const { return no_gamma_; }

  virtual const std::vector<OrderByLevel>& orderby_spec() const = 0;
  virtual std::size_t gamma_size() const = 0;
  virtual std::size_t rule_count() const = 0;
  virtual std::vector<std::string> rule_names() const = 0;
  /// Which Gamma substrate configure() actually installed (GammaStore
  /// describe()), for run logs and tuning sessions.
  virtual std::string store_describe() const = 0;

  // --- engine-internal interface -----------------------------------------

  struct RuntimeEnv {
    DeltaTree* delta = nullptr;
    sched::ForkJoinPool* pool = nullptr;  // null in sequential mode
    EdgeMatrix* edges = nullptr;
    OrderResolver* orders = nullptr;
    bool causality_checks = true;
    bool parallel = false;
    bool task_per_rule = false;  // §5.2 one task per (tuple, rule)
    /// SIMD / morsel execution switches (EngineOptions::simd/morsels),
    /// forwarded to stores as ExecHints; the JSTAR_SIMD / JSTAR_MORSELS
    /// env kill-switches are ANDed in downstream and win over these.
    bool simd = true;
    bool morsels = true;
    /// The owning engine's epoch clock (streaming); null in unit-test
    /// harnesses that configure tables without an engine.
    const std::atomic<std::int64_t>* epoch = nullptr;
  };

  /// Called by Engine::prepare(): resolves literals, builds the store.
  virtual void configure(const RuntimeEnv& env, bool no_delta,
                         bool no_gamma) = 0;

  /// Phase A of batch processing: move this table's slice of the batch
  /// into Gamma, recording which tuples were fresh (not duplicates).
  virtual void batch_insert_phase(BatchVecBase& slice,
                                  std::vector<std::uint8_t>& keep) = 0;

  /// Phase B: run effects and fire rules for the fresh tuples, at
  /// causality timestamp `key`.
  virtual void batch_fire_phase(BatchVecBase& slice,
                                const std::vector<std::uint8_t>& keep,
                                const DeltaKey& key) = 0;

  /// Epoch-boundary GC hook, called by Engine::begin_epoch with the epoch
  /// just opened.  Tables without a retain(N) hint ignore it.
  virtual void retire_epochs(std::int64_t current_epoch) {
    (void)current_epoch;
  }

  /// COORDINATOR-ONLY, between batches (after the fire-phase join).
  /// Drains every emit buffer rules filled during the batch into the
  /// Delta tree.  No-op for tables without buffered emissions.
  virtual void flush_emits() {}

 protected:
  friend class Engine;

  /// Process-unique serial for emit-buffer cache validation: the
  /// thread-local (table -> buffer) cache keys on (address, serial), so
  /// a destroyed table's address being reused by a new table can never
  /// resolve to the old table's buffer.
  static std::uint64_t next_emit_serial() {
    static std::atomic<std::uint64_t> n{0};
    return n.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::string name_;
  int id_ = -1;
  mutable TableStats stats_;
  bool no_delta_ = false;
  bool no_gamma_ = false;
};

// ---------------------------------------------------------------------------

/// A typed table: Gamma storage + rules + optional primary-key index.
///
/// T must be equality-comparable; ordered stores additionally require
/// operator< (defaulted <=> on the struct gives you both).
template <typename T>
class Table final : public TableBase {
 public:
  using Rule = std::function<void(RuleCtx&, const T&)>;

  explicit Table(TableDecl<T> decl) : decl_(std::move(decl)) {
    name_ = decl_.name_;
    JSTAR_CHECK_MSG(static_cast<bool>(decl_.hash_),
                    "table '" + name_ + "' needs a hash function");
  }

  // --- program-facing API --------------------------------------------------

  /// Puts a tuple from within a rule.  Enforces the law of causality: the
  /// new tuple's timestamp must be >= the trigger's timestamp.  Inside a
  /// retraction cascade (ctx.retraction()) the put is sign-flipped into a
  /// retract, so an unchanged rule body re-derives its conclusions with
  /// the trigger's sign — the heart of delta-correct recomputation.
  void put(RuleCtx& ctx, const T& t) {
    stats_.puts.fetch_add(1, std::memory_order_relaxed);
    put_signed(ctx, t, ctx.sign());
  }

  /// Retracts a tuple: its multiplicity drops by one, and when the count
  /// returns to zero the tuple leaves Gamma, its secondary indexes and
  /// its pk slot, and rules re-fire with sign -1 so downstream
  /// derivations are retracted in turn.  Requires TableDecl::counted().
  /// A retract with no matching insert records a debt (count -1) that
  /// annihilates the insert when (if) it arrives — that commutativity is
  /// what keeps sharded modes confluent.  Inside a retraction cascade the
  /// sign flips back: retracting a retraction re-inserts.
  void retract(RuleCtx& ctx, const T& t) {
    stats_.retracts.fetch_add(1, std::memory_order_relaxed);
    put_signed(ctx, t, -ctx.sign());
  }

  /// Keyed overwrite: "make the row for t's primary key be exactly t".
  /// If a different tuple holds the key at processing time it is
  /// force-retracted (count to zero regardless of multiplicity, firing
  /// the -1 cascade) before t is inserted with count 1; if t itself is
  /// already the key's row this is a no-op.  Requires counted() and a
  /// primary_key.  Ill-defined inside a retraction cascade — checked.
  void upsert(RuleCtx& ctx, const T& t) {
    JSTAR_CHECK_MSG(!ctx.retraction(),
                    "upsert into '" + name_ + "' from a retraction cascade");
    stats_.upserts.fetch_add(1, std::memory_order_relaxed);
    put_signed(ctx, t, kUpsertSign);
  }

  /// Engine-internal seam for signed deltas arriving from outside rule
  /// bodies (Engine::retract/upsert, the sharded fabric's signed mail
  /// lane, stream retraction envelopes): the retract/upsert analogue of
  /// the initial-put path.  `sign` is +1 (insert), a negative count
  /// (retract), or kUpsertSign.
  void seed_signed(const T& t, std::int32_t sign) {
    if (sign == kUpsertSign) {
      stats_.upserts.fetch_add(1, std::memory_order_relaxed);
    } else if (sign < 0) {
      stats_.retracts.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.puts.fetch_add(1, std::memory_order_relaxed);
    }
    check_signed_ok(sign);
    enqueue_delta(key_of(t), t, sign);
  }

  /// Sentinel sign marking an upsert delta in batches and signed mail
  /// (never combined with counted multiplicities).
  static constexpr std::int32_t kUpsertSign =
      std::numeric_limits<std::int32_t>::min();

  /// Whether this table runs counted (multiset) Gamma semantics.
  bool counted() const { return decl_.counted_; }

  /// The tuple's causality timestamp per the orderby list.
  DeltaKey key_of(const T& t) const {
    DeltaKey k;
    for (const auto& step : key_steps_) {
      k.push_back(step.is_lit ? env_.orders->rank(step.lit_id)
                              : step.getter(t));
    }
    return k;
  }

  /// Primary-key lookup (`get uniq?`).  Requires a primary_key in the decl.
  std::optional<T> get_unique(std::int64_t pk) const {
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    JSTAR_CHECK_MSG(has_pk_, "table '" + name_ + "' has no primary key");
    if (env_.parallel) {
      T out;
      if (pk_index_par_.lookup(pk, out)) return out;
      return std::nullopt;
    }
    auto it = pk_index_seq_.find(pk);
    if (it == pk_index_seq_.end()) return std::nullopt;
    return it->second;
  }

  /// Visits all stored tuples.  Chunk-capable stores (the flat
  /// substrates) take the templated fast path: the type-erased hop
  /// happens once per contiguous span, and the per-tuple loop below
  /// inlines `fn` — this is what find_if/count_if/none/min_by/aggregate
  /// and the planner's residual scans all ride on.
  template <typename Fn>
  void scan(Fn&& fn) const {
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    raw_scan(std::forward<Fn>(fn));
  }

  /// Ordered range scan [lo, hi) on stores that support it.
  template <typename Fn>
  void scan_range(const T& lo, const T& hi, Fn&& fn) const {
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    store_->scan_range(lo, hi,
                       std::function<void(const T&)>(std::forward<Fn>(fn)));
  }

  /// First tuple satisfying pred, if any (a `get ... ?` query).
  /// The generic overloads below are constrained away from query::Pred<T>
  /// arguments: an unconstrained forwarding template would win overload
  /// resolution for rvalue predicates and silently bypass the planner.
  template <typename Pred>
    requires(!std::is_same_v<std::decay_t<Pred>, query::Pred<T>>)
  std::optional<T> find_if(Pred&& pred) const {
    std::optional<T> out;
    scan([&](const T& t) {
      if (!out && pred(t)) out = t;
    });
    return out;
  }

  /// Planned overload: a typed predicate routes through plan_for() — pk
  /// probe, index bucket, ordered range — instead of scanning.
  std::optional<T> find_if(const query::Pred<T>& pred) const {
    std::optional<T> out;
    query(pred, [&](const T& t) {
      if (!out) out = t;
    });
    return out;
  }

  /// Predicates handed to the morsel-parallel overloads below must be
  /// pure (const-callable, no shared mutable state): past the sequential
  /// cutoff they run concurrently from pool workers.  Every predicate the
  /// engine itself emits is; JSTAR_MORSELS=off (or EngineOptions::morsels
  /// = false) pins the sequential path if a caller's is not.
  template <typename Pred>
    requires(!std::is_same_v<std::decay_t<Pred>, query::Pred<T>>)
  std::int64_t count_if(Pred&& pred) const {
    if (const auto parts = scan_morsel_parts<std::int64_t>(
            [&](std::int64_t& p, const T& t) {
              if (pred(t)) ++p;
            })) {
      stats_.queries.fetch_add(1, std::memory_order_relaxed);
      std::int64_t n = 0;
      for (const std::int64_t p : *parts) n += p;
      return n;
    }
    std::int64_t n = 0;
    scan([&](const T& t) {
      if (pred(t)) ++n;
    });
    return n;
  }

  /// Planned overload (same routing as query()).
  std::int64_t count_if(const query::Pred<T>& pred) const {
    return query_count(pred);
  }

  /// Aggregate query: folds every stored tuple into a reducer (the
  /// `get sum/min/count` aggregates of §3–§4; reducer types live in
  /// reduce/reducers.h, or any type with add()).  The §4 obligation that
  /// aggregates read only strictly-past strata is the caller's rule
  /// structure; this helper is the read itself.
  template <typename R, typename Proj>
  R aggregate(Proj&& proj, R reducer = R{}) const {
    // Morsel-parallel when the reducer can merge(): per-morsel partials
    // combine in storage order, so the result is deterministic — and
    // identical to the sequential fold for the exact (integer) reducers;
    // floating-point reductions regroup across morsel boundaries.
    if constexpr (std::is_default_constructible_v<R> &&
                  requires(R a, const R b) { a.merge(b); }) {
      if (const auto parts = scan_morsel_parts<R>(
              [&](R& p, const T& t) { p.add(proj(t)); })) {
        stats_.queries.fetch_add(1, std::memory_order_relaxed);
        for (const R& p : *parts) reducer.merge(p);
        return reducer;
      }
    }
    scan([&](const T& t) { reducer.add(proj(t)); });
    return reducer;
  }

  /// `get min T(...)`: the least tuple under `less` among those matching
  /// pred, if any.
  template <typename Pred, typename Less = std::less<T>>
    requires(!std::is_same_v<std::decay_t<Pred>, query::Pred<T>>)
  std::optional<T> min_by(Pred&& pred, Less less = {}) const {
    // Morsel-parallel: per-morsel bests combine in storage order under
    // the same strict less, so ties keep the earliest stored tuple —
    // exactly what the sequential scan keeps.
    if (const auto parts = scan_morsel_parts<std::optional<T>>(
            [&](std::optional<T>& p, const T& t) {
              if (!pred(t)) return;
              if (!p || less(t, *p)) p = t;
            })) {
      stats_.queries.fetch_add(1, std::memory_order_relaxed);
      std::optional<T> best;
      for (const std::optional<T>& p : *parts) {
        if (p && (!best || less(*p, *best))) best = p;
      }
      return best;
    }
    std::optional<T> best;
    scan([&](const T& t) {
      if (!pred(t)) return;
      if (!best || less(t, *best)) best = t;
    });
    return best;
  }

  /// Planned overload: visits only the plan's access path.
  template <typename Less = std::less<T>>
  std::optional<T> min_by(const query::Pred<T>& pred, Less less = {}) const {
    std::optional<T> best;
    query(pred, [&](const T& t) {
      if (!best || less(t, *best)) best = t;
    });
    return best;
  }

  /// Negative query (§4): true iff no stored tuple matches.
  template <typename Pred>
    requires(!std::is_same_v<std::decay_t<Pred>, query::Pred<T>>)
  bool none(Pred&& pred) const {
    return !find_if(std::forward<Pred>(pred)).has_value();
  }

  /// Planned overload.
  bool none(const query::Pred<T>& pred) const {
    return !find_if(pred).has_value();
  }

  /// Planned aggregate: folds every tuple on the predicate's access path
  /// into a reducer (reduce/reducers.h, or any type with add()) — the
  /// `get sum/min/count` aggregates of §3–§4, now planner-routed.
  template <typename R, typename Proj>
  R fold(const query::Pred<T>& pred, Proj&& proj, R reducer = R{}) const {
    // A mergeable reducer on a plain full scan folds morsel-parallel —
    // the residual predicate runs inside each morsel, partials merge in
    // storage order.  Probe/range plans stay on the routed path.
    if constexpr (std::is_default_constructible_v<R> &&
                  requires(R a, const R b) { a.merge(b); }) {
      const QueryPlan plan = plan_for(pred);
      if (plan.path == AccessPath::FullScan && !plan.columnar) {
        if (const auto parts = scan_morsel_parts<R>(
                [&](R& p, const T& t) {
                  if (pred(t)) p.add(proj(t));
                })) {
          stats_.queries.fetch_add(1, std::memory_order_relaxed);
          stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
          for (const R& p : *parts) reducer.merge(p);
          return reducer;
        }
      }
    }
    query(pred, [&](const T& t) { reducer.add(proj(t)); });
    return reducer;
  }

  /// Member-pointer projection overload (more specialized, so it wins
  /// overload resolution over the generic Proj form): on a columnar full
  /// scan the projected values are gathered straight from the column —
  /// tuples are never materialised.  Falls back to the generic path for
  /// any other plan.
  template <typename R, typename M>
  R fold(const query::Pred<T>& pred, M T::*proj, R reducer = R{}) const {
    if (columnar_ops_ != nullptr) {
      const QueryPlan plan = plan_for(pred);
      if (plan.path == AccessPath::FullScan && plan.columnar) {
        const void* tag = query::field_tag(proj);
        typename ColumnarOps<T>::KernelStats ks;
        bool served = false;
        if constexpr (std::is_floating_point_v<M>) {
          served = columnar_ops_->kernel_gather_f64(
              kernel_bounds(pred), tag,
              [&](const double* v, std::size_t n) {
                for (std::size_t i = 0; i < n; ++i) {
                  reducer.add(static_cast<M>(v[i]));
                }
              },
              &ks);
        } else {
          served = columnar_ops_->kernel_gather_i64(
              kernel_bounds(pred), tag,
              [&](const std::int64_t* v, std::size_t n) {
                for (std::size_t i = 0; i < n; ++i) {
                  reducer.add(static_cast<M>(v[i]));
                }
              },
              &ks);
        }
        if (served) {
          stats_.queries.fetch_add(1, std::memory_order_relaxed);
          stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
          note_kernel(ks);
          return reducer;
        }
      }
    }
    return fold(pred, [proj](const T& t) { return t.*proj; },
                std::move(reducer));
  }

  /// Member-pointer key overload of min_by: "least tuple by this field".
  /// On a columnar full scan the argmin runs over the key column alone;
  /// ties keep the first row in store order, exactly as the scan path
  /// does.  Falls back to the comparator form for any other plan.
  template <typename M>
  std::optional<T> min_by(const query::Pred<T>& pred, M T::*key) const {
    if (columnar_ops_ != nullptr) {
      const QueryPlan plan = plan_for(pred);
      if (plan.path == AccessPath::FullScan && plan.columnar) {
        const void* tag = query::field_tag(key);
        std::optional<T> out;
        typename ColumnarOps<T>::KernelStats ks;
        if (columnar_ops_->kernel_min_row(kernel_bounds(pred), tag, &out,
                                          &ks)) {
          stats_.queries.fetch_add(1, std::memory_order_relaxed);
          stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
          note_kernel(ks);
          return out;
        }
      }
    }
    return min_by(pred, [key](const T& a, const T& b) {
      return a.*key < b.*key;
    });
  }

  bool contains(const T& t) const {
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    return store_->contains(t);
  }

  /// Direct store access for app-specific query paths (the custom
  /// structures of §6.2/§6.4 expose richer lookups).
  GammaStore<T>* store() { return store_.get(); }
  const GammaStore<T>* store() const { return store_.get(); }

  // --- secondary indexes, range prefixes & planned queries (§1.4) ----------

  /// Declares a secondary hash index on one or more integral fields (a
  /// composite index when several are given).  Must be called before the
  /// engine starts; index maintenance then piggybacks on Gamma inserts and
  /// retention sweeps (retire_epochs).  Queries whose predicate pins every
  /// indexed field with query::eq route through the index automatically.
  template <typename... Ms>
  void add_index(Ms T::*... members) {
    static_assert(sizeof...(Ms) >= 1, "add_index needs at least one field");
    JSTAR_CHECK_MSG(store_ == nullptr,
                    "index on '" + name_ + "' added after execution started");
    std::vector<const void*> tags{query::field_tag(members)...};
    std::vector<std::function<std::int64_t(const T&)>> getters{
        std::function<std::int64_t(const T&)>([members](const T& t) {
          return static_cast<std::int64_t>(t.*members);
        })...};
    indexes_.push_back(std::make_unique<SecondaryIndex>(std::move(tags),
                                                        std::move(getters)));
  }

  /// Declares an ordered-range prefix: `members...` must be a prefix of
  /// the Gamma store's lexicographic sort order (for the defaulted <=>
  /// stores, the struct's leading fields in order).  `lower_bound` maps a
  /// vector of 1..N leading values to the *least* tuple carrying them
  /// (remaining fields at their minimum).  The planner then compiles
  /// eq-prefix + interval predicates on these fields into O(log N + k)
  /// seeks on TreeSetStore/SkipListStore instead of full scans.  Ignored
  /// (residual scan) when the configured store is unordered.
  template <typename... Ms>
  void add_range_index(
      std::function<T(const std::vector<std::int64_t>&)> lower_bound,
      Ms T::*... members) {
    static_assert(sizeof...(Ms) >= 1,
                  "add_range_index needs at least one field");
    JSTAR_CHECK_MSG(store_ == nullptr,
                    "range index on '" + name_ +
                        "' added after execution started");
    range_indexes_.push_back(RangeIndex{
        {query::field_tag(members)...},
        {std::function<std::int64_t(const T&)>([members](const T& t) {
          return static_cast<std::int64_t>(t.*members);
        })...},
        std::move(lower_bound)});
  }

  /// The planner-visible description of this table's access structures
  /// (the cached copy once configure() froze the declarations).
  PlannerCatalog planner_catalog() const {
    return store_ != nullptr ? catalog_ : build_planner_catalog();
  }

  /// Compiles (but does not run) the access path `query(pred, ...)` would
  /// take — the `EXPLAIN` of this engine.
  QueryPlan plan_for(const query::Pred<T>& pred) const {
    if (store_ != nullptr) return plan_query(catalog_, pred);
    return plan_query(build_planner_catalog(), pred);
  }

  /// Runs `fn` over every stored tuple matching `pred`, executing the
  /// compiled plan: a contradiction touches nothing, a pk-pinning
  /// predicate probes the pk index, an eq-covered hash index visits one
  /// bucket, an ordered eq-prefix/interval seeks the store, and anything
  /// else scans.  Results are identical whichever path runs — the §1.4
  /// claim that access-path choice cannot change program meaning — because
  /// the full predicate is always applied as a residual filter.
  void query(const query::Pred<T>& pred,
             const std::function<void(const T&)>& fn) const {
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    execute_plan(plan_for(pred), pred, fn);
  }

  /// Count of tuples matching pred, routed like query().  On a columnar
  /// full scan the count never materialises a tuple: the kernel counts
  /// selected rows straight off the column masks.
  std::int64_t query_count(const query::Pred<T>& pred) const {
    const QueryPlan plan = plan_for(pred);
    if (plan.path == AccessPath::FullScan && plan.columnar &&
        columnar_ops_ != nullptr) {
      stats_.queries.fetch_add(1, std::memory_order_relaxed);
      stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
      const auto ks = columnar_ops_->kernel_count(kernel_bounds(pred));
      note_kernel(ks);
      return ks.selected;
    }
    if (plan.path == AccessPath::FullScan && !plan.columnar) {
      // Plain full-scan count: morsel-parallel partial counts, summed in
      // storage order (residual predicate evaluated inside each morsel).
      if (const auto parts = scan_morsel_parts<std::int64_t>(
              [&](std::int64_t& p, const T& t) {
                if (pred(t)) ++p;
              })) {
        stats_.queries.fetch_add(1, std::memory_order_relaxed);
        stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
        std::int64_t n = 0;
        for (const std::int64_t p : *parts) n += p;
        return n;
      }
    }
    std::int64_t n = 0;
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    execute_plan(plan, pred, [&](const T&) { ++n; });
    return n;
  }

  std::size_t index_count() const { return indexes_.size(); }
  std::size_t range_index_count() const { return range_indexes_.size(); }

  void add_rule(std::string rule_name, Rule fn) {
    rules_.push_back({std::move(rule_name), std::move(fn)});
  }

  // --- TableBase implementation -------------------------------------------

  const std::vector<OrderByLevel>& orderby_spec() const override {
    return decl_.spec_;
  }
  std::size_t gamma_size() const override {
    return store_ ? store_->size() : 0;
  }
  std::string store_describe() const override {
    return store_ ? store_->describe() : "unconfigured";
  }
  std::size_t rule_count() const override { return rules_.size(); }
  std::vector<std::string> rule_names() const override {
    std::vector<std::string> out;
    out.reserve(rules_.size());
    for (const auto& r : rules_) out.push_back(r.name);
    return out;
  }

  void configure(const RuntimeEnv& env, bool no_delta,
                 bool no_gamma) override {
    env_ = env;
    no_delta_ = no_delta;
    no_gamma_ = no_gamma;
    has_pk_ = static_cast<bool>(decl_.pk_) && !no_gamma;
    // Resolve orderby levels into key-building steps.  At least one
    // comparable (lit/seq) level is required: an all-par orderby would give
    // every tuple the empty timestamp, which is reserved for initial puts.
    key_steps_.clear();
    for (const auto& level : decl_.levels_) {
      switch (level.kind) {
        case TableDecl<T>::LevelKind::Lit:
          key_steps_.push_back({true, env_.orders->literal(level.name), {}});
          break;
        case TableDecl<T>::LevelKind::Seq:
          key_steps_.push_back({false, 0, level.getter});
          break;
        case TableDecl<T>::LevelKind::Par:
          break;  // excluded from the comparable key
      }
    }
    JSTAR_CHECK_MSG(!key_steps_.empty(),
                    "table '" + name_ +
                        "' needs at least one lit/seq orderby level");
    JSTAR_CHECK_MSG(
        decl_.retain_engine_keep_ < 1 || decl_.retain_keep_ < 1,
        "table '" + name_ +
            "' sets both retain(N) and retain_epochs — pick one window");
    // Build the Gamma store per strategy (§1.4 late commitment).
    JSTAR_CHECK_MSG(
        !(decl_.preset_ != TableDecl<T>::StorePreset::None &&
          static_cast<bool>(decl_.store_factory_)),
        "table '" + name_ +
            "' sets both a flat-store preset and a store_factory");
    // Tuple-carried windows (retain_epochs) need the bucketed epoch
    // store; only the engine-clock retain(N) window composes with the
    // flat tier.  Fail rather than silently dropping the preset.
    JSTAR_CHECK_MSG(
        !(decl_.preset_ != TableDecl<T>::StorePreset::None &&
          decl_.retain_keep_ >= 1),
        "table '" + name_ +
            "' combines a flat-store preset with retain_epochs — "
            "tuple-carried windows need the epoch-bucketed store");
    if (decl_.counted_) {
      JSTAR_CHECK_MSG(!no_gamma, "counted table '" + name_ +
                                     "' cannot run -noGamma (nothing to "
                                     "retract from)");
      JSTAR_CHECK_MSG(!no_delta, "counted table '" + name_ +
                                     "' cannot run -noDelta (signed deltas "
                                     "need batch combining)");
      JSTAR_CHECK_MSG(decl_.retain_keep_ < 1,
                      "counted table '" + name_ +
                          "' cannot use retain_epochs — tuple-carried "
                          "windows retire mid-run; use retain(N)");
      if (count_shards_.empty()) {
        count_shards_.reserve(kCountShards);
        for (std::size_t i = 0; i < kCountShards; ++i) {
          count_shards_.push_back(std::make_unique<CountShard>(this));
        }
      }
    }
    window_store_ = nullptr;
    retiring_store_ = nullptr;
    tuple_epoch_window_ = false;
    if (no_gamma) {
      store_ = std::make_unique<NullStore<T>>();
    } else if (decl_.retain_engine_keep_ >= 1 &&
               decl_.preset_ == TableDecl<T>::StorePreset::FlatOrdered) {
      // retain(N) over the flat substrate: tuples are tagged with the
      // engine epoch clock on arrival and begin_epoch() compacts the
      // arrays in place (see retire_epochs below).  Passing the window
      // width also arms insert-driven retirement, so straggler semantics
      // match the bucketed EpochWindowStore even when the clock advances
      // without a begin_epoch() sweep.
      auto owned = std::make_unique<FlatOrderedStore<T, FnHash<T>>>(
          env.epoch, FnHash<T>{decl_.hash_}, decl_.retain_engine_keep_);
      window_store_ = owned.get();
      retiring_store_ = owned.get();
      store_ = std::move(owned);
    } else if (decl_.preset_ == TableDecl<T>::StorePreset::Columnar) {
      // columns(...): the SoA substrate; with retain(N) it epoch-tags
      // rows and compacts every column in place at epoch boundaries.
      const bool windowed = decl_.retain_engine_keep_ >= 1;
      auto owned = decl_.columnar_factory_(
          env.epoch, decl_.retain_engine_keep_, decl_.hash_);
      if (windowed) {
        auto* retiring = dynamic_cast<RetiringStore<T>*>(owned.get());
        window_store_ = retiring;
        retiring_store_ = retiring;
      }
      store_ = std::move(owned);
    } else if (decl_.retain_engine_keep_ >= 1) {
      // retain(N): window over the *engine* epoch clock — every tuple's
      // epoch is the epoch it arrived in, and begin_epoch() retires the
      // buckets that fell out of the window (see retire_epochs below).
      // A flat_hash_store() preset lands here too: open addressing
      // cannot drop whole epochs without a rebuild, so the bucketed
      // window serves windowed tables instead.
      auto owned = std::make_unique<EpochWindowStore<T, FnHash<T>>>(
          [clock = env.epoch](const T&) {
            return clock != nullptr
                       ? clock->load(std::memory_order_relaxed)
                       : 0;
          },
          decl_.retain_engine_keep_, FnHash<T>{decl_.hash_},
          /*clock_epochs=*/true);
      window_store_ = owned.get();
      retiring_store_ = owned.get();
      store_ = std::move(owned);
    } else if (decl_.retain_keep_ >= 1) {
      auto owned = std::make_unique<EpochWindowStore<T, FnHash<T>>>(
          decl_.retain_epoch_of_, decl_.retain_keep_, FnHash<T>{decl_.hash_});
      retiring_store_ = owned.get();
      tuple_epoch_window_ = true;
      store_ = std::move(owned);
    } else if (decl_.preset_ == TableDecl<T>::StorePreset::FlatOrdered) {
      store_ = std::make_unique<FlatOrderedStore<T, FnHash<T>>>(
          FnHash<T>{decl_.hash_});
    } else if (decl_.preset_ == TableDecl<T>::StorePreset::FlatHash) {
      store_ = std::make_unique<FlatHashStore<T, FnHash<T>>>(
          FnHash<T>{decl_.hash_});
    } else if (decl_.store_factory_) {
      store_ = decl_.store_factory_(env.parallel);
    } else if (env.parallel) {
      store_ = std::make_unique<SkipListStore<T>>();
    } else {
      store_ = std::make_unique<TreeSetStore<T>>();
    }
    // Kernel interface, when the configured store exposes one (the
    // columnar preset, or a store_factory returning a ColumnStore).
    columnar_ops_ = dynamic_cast<ColumnarOps<T>*>(store_.get());
    // Execution hints: the engine's pool for morsel-parallel kernels and
    // scans, plus the SIMD/morsel switches (env kill-switches are ANDed
    // in by the stores, so JSTAR_SIMD/JSTAR_MORSELS=off always wins).
    store_->set_exec_hints(ExecHints{env_.pool, env_.simd, env_.morsels});
    JSTAR_CHECK_MSG(!decl_.counted_ || store_->erasable(),
                    "counted table '" + name_ + "': store '" +
                        store_->describe() + "' cannot erase tuples");
    // Epoch-aware index maintenance: whatever the window retires is swept
    // from the secondary indexes too, so "indexes never forget" is no
    // longer true — routed and scanned queries see the same live set.
    if (retiring_store_ != nullptr) {
      retiring_store_->set_retire_listener(
          [this](const T& t) { retire_from_indexes(t); });
    }
    // Declarations are frozen from here on (add_index/add_range_index
    // check store_ == nullptr), so the planner catalog can be built once
    // instead of per query — query() sits in hot rule bodies.
    catalog_ = build_planner_catalog();
  }

  void retire_epochs(std::int64_t current_epoch) override {
    if (window_store_ == nullptr) return;
    const std::int64_t retired = window_store_->retire_up_to(
        current_epoch - decl_.retain_engine_keep_);
    stats_.gamma_retired.fetch_add(retired, std::memory_order_relaxed);
  }

  void batch_insert_phase(BatchVecBase& slice,
                          std::vector<std::uint8_t>& keep) override {
    auto& bv = static_cast<BatchVec&>(slice);
    const std::int64_t n = static_cast<std::int64_t>(bv.items.size());
    keep.assign(static_cast<std::size_t>(n), kKeepNone);
    // An upsert resolves against the live pk slot, so two upserts of one
    // pk on different workers would both find it free and the second
    // could not claim it.  A counted slice holding any upsert therefore
    // runs on this thread, in batch order, like the sequential engine.
    bool in_order = false;
    if (decl_.counted_) {
      bv.displaced.resize(bv.items.size());
      in_order = std::find(bv.sign.begin(), bv.sign.end(), kUpsertSign) !=
                 bv.sign.end();
    }
    auto insert_one = [&](std::int64_t i) {
      const auto u = static_cast<std::size_t>(i);
      if (!decl_.counted_) {
        keep[u] = insert_gamma(bv.items[u]) ? kKeepInsert : kKeepNone;
        return;
      }
      const std::int32_t s = bv.sign[u];
      if (s == kUpsertSign) {
        keep[u] = upsert_gamma(bv.items[u], &bv.displaced[u]);
      } else if (s != 0) {
        // s == 0 means the tuple's inserts and retracts annihilated
        // inside the batch — no Gamma mutation, no firing.
        keep[u] = counted_apply(bv.items[u], s);
      }
    };
    lazy_split(in_order ? nullptr : env_.pool, n, insert_one);
  }

  void batch_fire_phase(BatchVecBase& slice,
                        const std::vector<std::uint8_t>& keep,
                        const DeltaKey& key) override {
    auto& bv = static_cast<BatchVec&>(slice);
    const std::int64_t n = static_cast<std::int64_t>(bv.items.size());
    if (n == 0) return;
    // Each phase starts inline on the coordinator and shares its items
    // with the pool only once it has proved big (lazy_split): the
    // 1-to-few-tuple batches of deep chains (Dijkstra) never pay a
    // fork/join round trip, and a batch of expensive rule bodies splits
    // however few tuples it has.
    const auto rules = static_cast<std::int64_t>(rules_.size());
    bool stayed_inline = true;
    if (env_.pool != nullptr && env_.task_per_rule && rules > 1 &&
        !decl_.counted_) {
      // §5.2 fine-grained strategy: one item per (tuple, rule) pair.
      // Effects run with rule 0 so they still happen exactly once per
      // tuple.  Counted tables skip this strategy: an upsert fires two
      // cascades per item (displaced then replacement), which the flat
      // (tuple, rule) indexing cannot express — they use the per-tuple
      // items below instead.  The RuleCtx is hoisted out of the loop: it
      // is immutable (every accessor const), so one instance per batch is
      // safely shared by every thread firing it.
      RuleCtx ctx(key, id_, env_.edges, current_epoch());
      stayed_inline = lazy_split(
          env_.pool, n * rules,
          [&](std::int64_t idx) {
            const std::int64_t i = idx / rules;
            const auto r = static_cast<std::size_t>(idx % rules);
            if (!keep[static_cast<std::size_t>(i)]) return;
            const T& t = bv.items[static_cast<std::size_t>(i)];
            if (r == 0 && decl_.effect_) decl_.effect_(t);
            stats_.fires.fetch_add(1, std::memory_order_relaxed);
            rules_[r].fn(ctx, t);
          },
          /*grain=*/1);
    } else {
      stayed_inline = lazy_split(env_.pool, n, [&](std::int64_t i) {
        const auto u = static_cast<std::size_t>(i);
        switch (keep[u]) {
          case kKeepInsert:
            fire_tuple(key, bv.items[u]);
            break;
          case kKeepRetract:
            fire_tuple(key, bv.items[u], -1);
            break;
          case kKeepUpsert:
            // The displaced tuple's downstream cone is retracted before
            // the replacement's is derived, both at this batch's
            // timestamp.
            fire_tuple(key, bv.displaced[u], -1);
            fire_tuple(key, bv.items[u]);
            break;
          default:
            break;
        }
      });
    }
    if (stayed_inline && env_.pool != nullptr) {
      stats_.inline_batches.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void flush_emits() override {
    if (!emit_dirty_.load(std::memory_order_relaxed)) return;
    emit_dirty_.store(false, std::memory_order_relaxed);
    // Gather in deterministic order: worker-slot hint, then registration
    // order.  Sequential mode has exactly one buffer, so the gathered
    // order is the exact put order; in parallel mode the within-batch put
    // order is schedule-dependent anyway, and the batch-combining
    // semantics (append_one) are order-insensitive.
    std::vector<EmitBuffer*> bufs;
    {
      std::lock_guard<std::mutex> lk(emit_mu_);
      bufs.reserve(emit_buffers_.size());
      for (const auto& b : emit_buffers_) {
        if (!b->recs.empty()) bufs.push_back(b.get());
      }
    }
    if (bufs.empty()) return;
    std::sort(bufs.begin(), bufs.end(),
              [](const EmitBuffer* a, const EmitBuffer* b) {
                return a->slot != b->slot ? a->slot < b->slot
                                          : a->seq < b->seq;
              });
    // Replay every record through append_one in gather order.  Rule
    // batches emit long runs of one causality key (a stratum derives into
    // the next), so the Delta tree is probed only where the key changes.
    const DeltaKey* last_key = nullptr;
    BatchVec* bv = nullptr;
    for (EmitBuffer* b : bufs) {
      for (const EmitRecord& r : b->recs) {
        if (last_key == nullptr || !(*last_key == r.key)) {
          bv = &slice_of(env_.delta->get_or_insert(r.key));
          last_key = &r.key;
        }
        append_one(*bv, r.tuple, r.sign);
      }
    }
    stats_.emit_flushes.fetch_add(1, std::memory_order_relaxed);
    for (EmitBuffer* b : bufs) b->recs.clear();  // keeps capacity
  }

 private:
  friend class Engine;

  struct NamedRule {
    std::string name;
    Rule fn;
  };

  struct HashAdapter {
    const Table* table;
    std::size_t operator()(const T& t) const { return table->decl_.hash_(t); }
  };

  struct BatchVec final : public BatchVecBase {
    explicit BatchVec(const Table* table)
        : seen(8, HashAdapter{table}) {}
    std::vector<T> items;
    // Net signed multiplicity per item (parallel to items).  Counted
    // tables accumulate the +1/-1 deltas of one tuple into a single
    // entry, so an insert and its retract meeting in the same batch
    // annihilate before phase A even runs; kUpsertSign marks an upsert
    // delta.  Non-counted tables only ever hold +1.  `displaced` is
    // sized by phase A when the batch carries upserts: slot i receives
    // the tuple upsert i displaced, for phase B's retraction cascade.
    std::vector<std::int32_t> sign;
    std::vector<T> displaced;
    std::unordered_map<T, std::size_t, HashAdapter> seen;  // tuple -> index
    std::size_t count() const override { return items.size(); }
  };

  // --- batch-at-a-time emission ------------------------------------------

  /// One buffered rule put: everything enqueue_delta needs, captured at
  /// put time (the causality check already ran).
  struct EmitRecord {
    DeltaKey key;
    T tuple;
    std::int32_t sign;
  };

  /// A per-(thread, table) append-only buffer.  `slot` is the emitting
  /// thread's worker index at registration (-1 for non-workers) and
  /// `seq` its registration order — together the deterministic flush
  /// order.
  struct EmitBuffer {
    int slot = -1;
    std::uint64_t seq = 0;
    std::vector<EmitRecord> recs;
  };

  static constexpr std::size_t kEmitCacheSlots = 8;

  /// The calling thread's buffer for this table, registering one on
  /// first use.  Keyed by (address, serial) in a small thread_local
  /// cache: joining threads *help* — a shard coordinator can steal and
  /// execute another engine's fire tasks — so two non-worker threads can
  /// emit into one table concurrently, and a plain worker-index slot
  /// array would collide them.  A cache eviction just re-registers a new
  /// buffer; the orphan keeps being flushed and merely stops growing.
  EmitBuffer& local_emit_buffer() {
    struct CacheEntry {
      const void* table = nullptr;
      std::uint64_t serial = 0;
      EmitBuffer* buf = nullptr;
    };
    thread_local CacheEntry cache[kEmitCacheSlots];
    thread_local std::size_t evict = 0;
    for (CacheEntry& e : cache) {
      if (e.table == this && e.serial == emit_serial_) return *e.buf;
    }
    auto owned = std::make_unique<EmitBuffer>();
    owned->slot = sched::ForkJoinPool::current_worker_index();
    EmitBuffer* buf = owned.get();
    {
      std::lock_guard<std::mutex> lk(emit_mu_);
      owned->seq = emit_buffers_.size();
      emit_buffers_.push_back(std::move(owned));
    }
    cache[evict] = CacheEntry{this, emit_serial_, buf};
    evict = (evict + 1) % kEmitCacheSlots;
    return *buf;
  }

  struct KeyStep {
    bool is_lit;
    int lit_id;
    std::function<std::int64_t(const T&)> getter;
  };

  /// Striped hash multimap from an integral key to tuples; safe for
  /// concurrent inserts from parallel rule tasks.  Composite indexes mix
  /// the field values into one key — a mix collision only costs extra
  /// residual-filter work, never a wrong result, because query() always
  /// re-applies the full predicate.
  struct SecondaryIndex {
    SecondaryIndex(std::vector<const void*> ts,
                   std::vector<std::function<std::int64_t(const T&)>> gs)
        : tags(std::move(ts)), getters(std::move(gs)), shards(16) {}

    static std::int64_t mix(std::int64_t h, std::int64_t v) {
      std::uint64_t z = static_cast<std::uint64_t>(h) ^
                        (static_cast<std::uint64_t>(v) +
                         0x9e3779b97f4a7c15ULL +
                         (static_cast<std::uint64_t>(h) << 6) +
                         (static_cast<std::uint64_t>(h) >> 2));
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      return static_cast<std::int64_t>(z ^ (z >> 27));
    }

    std::int64_t key_of(const T& t) const {
      if (getters.size() == 1) return getters[0](t);
      std::int64_t h = 0;
      for (const auto& g : getters) h = mix(h, g(t));
      return h;
    }
    std::int64_t key_from_values(const std::vector<std::int64_t>& vs) const {
      if (vs.size() == 1) return vs[0];
      std::int64_t h = 0;
      for (const std::int64_t v : vs) h = mix(h, v);
      return h;
    }

    void insert(const T& t) {
      const std::int64_t key = key_of(t);
      Shard& s = shard_for(key);
      std::lock_guard<std::mutex> lk(s.mu);
      s.map.emplace(key, t);
    }
    /// Removes one entry equal to `t`, if present; returns whether an
    /// entry was removed (retention sweeps count these).
    bool erase(const T& t) {
      const std::int64_t key = key_of(t);
      Shard& s = shard_for(key);
      std::lock_guard<std::mutex> lk(s.mu);
      auto [lo, hi] = s.map.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == t) {
          s.map.erase(it);
          return true;
        }
      }
      return false;
    }
    void lookup(std::int64_t key,
                const std::function<void(const T&)>& fn) const {
      const Shard& s = shard_for(key);
      std::lock_guard<std::mutex> lk(s.mu);
      auto [lo, hi] = s.map.equal_range(key);
      for (auto it = lo; it != hi; ++it) fn(it->second);
    }

    std::vector<const void*> tags;
    std::vector<std::function<std::int64_t(const T&)>> getters;

   private:
    struct Shard {
      mutable std::mutex mu;
      std::unordered_multimap<std::int64_t, T> map;
    };
    Shard& shard_for(std::int64_t key) {
      return shards[static_cast<std::size_t>(key) % shards.size()];
    }
    const Shard& shard_for(std::int64_t key) const {
      return shards[static_cast<std::size_t>(key) % shards.size()];
    }
    mutable std::vector<Shard> shards;
  };

  /// One declared ordered-range prefix (see add_range_index).  The
  /// getters let execute_range verify that the factory represented a
  /// requested bound exactly (a value outside a narrower field type's
  /// range truncates — detected as a failed round trip).
  struct RangeIndex {
    std::vector<const void*> tags;
    std::vector<std::function<std::int64_t(const T&)>> getters;
    std::function<T(const std::vector<std::int64_t>&)> lower_bound;

    bool bound_exact(const T& t,
                     const std::vector<std::int64_t>& values) const {
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (getters[i](t) != values[i]) return false;
      }
      return true;
    }
  };

  /// Shared body of put/retract/upsert: causality check, dataflow edge,
  /// and routing of the signed delta.
  void put_signed(RuleCtx& ctx, const T& t, std::int32_t sign) {
    check_signed_ok(sign);
    DeltaKey k = key_of(t);
    if (env_.causality_checks && !ctx.initial()) {
      if ((k <=> ctx.now()) == std::strong_ordering::less) {
        throw CausalityViolation(
            "rule fired at " + jstar::to_string(ctx.now()) +
            " put a tuple into the past at " + jstar::to_string(k) +
            " of table " + name_);
      }
    }
    if (ctx.edges() != nullptr) ctx.edges()->record(ctx.from_table(), id_);
    if (no_delta_) {
      // Counted tables reject -noDelta at configure time, so only +1
      // deltas can reach the inline path.
      deliver_now(k, t);
      return;
    }
    // The Delta tree belongs to the thread driving the engine, so a rule
    // (on whatever thread fires it) only appends the record to its own
    // buffer; the coordinator moves it into the tree at flush_emits().
    EmitBuffer& buf = local_emit_buffer();
    buf.recs.push_back(EmitRecord{std::move(k), t, sign});
    emit_dirty_.store(true, std::memory_order_relaxed);
    stats_.emit_buffered.fetch_add(1, std::memory_order_relaxed);
  }

  void check_signed_ok(std::int32_t sign) const {
    JSTAR_CHECK_MSG(
        sign == 1 || decl_.counted_,
        "table '" + name_ + "' received a signed delta (retract/upsert or "
        "a retraction cascade) but is not declared counted()");
    JSTAR_CHECK_MSG(sign != kUpsertSign || static_cast<bool>(decl_.pk_),
                    "upsert into '" + name_ + "' needs a primary key");
  }

  /// Initial puts and seeds: straight into the Delta tree (coordinator).
  void enqueue_delta(const DeltaKey& k, const T& t, std::int32_t sign = 1) {
    append_one(slice_of(env_.delta->get_or_insert(k)), t, sign);
  }

  /// This table's slice of `node`, created lazily.  Shared by the initial
  /// enqueue and the emit flush.
  BatchVec& slice_of(BatchNode& node) {
    if (node.per_table.size() <= static_cast<std::size_t>(id_)) {
      node.per_table.resize(static_cast<std::size_t>(id_) + 1);
    }
    auto& slot = node.per_table[static_cast<std::size_t>(id_)];
    if (!slot) slot = std::make_unique<BatchVec>(this);
    return static_cast<BatchVec&>(*slot);
  }

  /// Appends one signed tuple into slice `bv`: set-semantics dedup for
  /// plain tables, signed multiplicity accumulation and upsert supersede
  /// for counted ones.  The single definition of batch-combining
  /// semantics — initial puts and the emit flush both land here.
  void append_one(BatchVec& bv, const T& t, std::int32_t sign) {
    const auto [it, fresh] = bv.seen.emplace(t, bv.items.size());
    if (fresh) {
      bv.items.push_back(t);
      bv.sign.push_back(sign);
      stats_.delta_inserts.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::int32_t& s = bv.sign[it->second];
    if (decl_.counted_ && sign != kUpsertSign && s != kUpsertSign) {
      // Counted tables accumulate signed multiplicity instead of
      // deduping: an insert and a retract of the same tuple meeting in
      // one batch net to zero and phase A skips the tuple entirely.
      s += sign;
      stats_.delta_inserts.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (decl_.counted_ && sign == kUpsertSign) {
      // An upsert supersedes this batch's earlier counted deltas for the
      // same tuple — it forces the key's row (and count) anyway.
      s = kUpsertSign;
      stats_.delta_inserts.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    stats_.delta_dups.fetch_add(1, std::memory_order_relaxed);
  }

  /// -noDelta path (§5.1): straight into Gamma, fire rules inline.
  void deliver_now(const DeltaKey& k, const T& t) {
    if (insert_gamma(t)) fire_tuple(k, t);
  }

  /// Returns true when the tuple is fresh (not a set-semantics duplicate
  /// and not a primary-key conflict).
  bool insert_gamma(const T& t) {
    if (has_pk_) {
      const std::int64_t pk = decl_.pk_(t);
      bool fresh = false;
      if (env_.parallel) {
        pk_index_par_.get_or_insert(pk, [&] {
          fresh = true;
          return t;
        });
      } else {
        fresh = pk_index_seq_.emplace(pk, t).second;
      }
      if (!fresh) {
        // Either an exact duplicate (set semantics) or a conflicting tuple
        // (invariant violation the SMT layer would flag statically).
        const std::optional<T> existing = peek_pk(pk);
        if (existing && !(*existing == t)) {
          stats_.pk_conflicts.fetch_add(1, std::memory_order_relaxed);
        } else {
          stats_.gamma_dups.fetch_add(1, std::memory_order_relaxed);
        }
        return false;
      }
      store_->insert(t);
      stats_.gamma_inserts.fetch_add(1, std::memory_order_relaxed);
      update_indexes(t);
      return true;
    }
    if (!store_->insert(t)) {
      stats_.gamma_dups.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    stats_.gamma_inserts.fetch_add(1, std::memory_order_relaxed);
    // -noGamma: the NullStore accepted the tuple but retained nothing;
    // count the pass-through so the table's throughput stays visible.
    if (no_gamma_) {
      stats_.gamma_passed_through.fetch_add(1, std::memory_order_relaxed);
    }
    update_indexes(t);
    return true;
  }

  void update_indexes(const T& t) {
    if (indexes_.empty()) return;
    // A -noGamma store retains nothing and a retention window drops
    // stragglers on arrival; in both cases the tuple never reached Gamma,
    // and the indexes must mirror the store exactly.
    if (no_gamma_) return;
    // Only tuple-carried epoch windows (retain_epochs) need the liveness
    // guard: their insert path can drop stragglers and retire buckets
    // mid-run.  Clock windows (retain) advance only in begin_epoch(),
    // between runs, so inserts there can never race a retirement.
    if (tuple_epoch_window_) {
      if (!store_->contains(t)) return;
      for (const auto& idx : indexes_) idx->insert(t);
      // A concurrent insert can retire t's bucket between the check above
      // and our index insert — the retire listener would find nothing to
      // erase.  The recheck closes that window: whichever of (listener
      // erase, this erase) runs second actually removes the entry.
      if (!store_->contains(t)) {
        for (const auto& idx : indexes_) idx->erase(t);
      }
      return;
    }
    for (const auto& idx : indexes_) idx->insert(t);
  }

  // --- counted (multiset) Gamma: retract/upsert machinery ------------------

  // Phase-A keep codes (per batch item), consumed by batch_fire_phase.
  static constexpr std::uint8_t kKeepNone = 0;     // no presence transition
  static constexpr std::uint8_t kKeepInsert = 1;   // became present: sign +1
  static constexpr std::uint8_t kKeepRetract = 2;  // left Gamma: sign -1
  static constexpr std::uint8_t kKeepUpsert = 3;   // displaced + inserted

  /// The side count map holds a tuple's multiplicity ONLY when it is
  /// interesting: >= 2 (stored, with spare multiplicity) or <= -1 (a
  /// retract-before-insert debt).  Count 1 is represented by store
  /// membership alone and count 0 by absence, so insert-only workloads
  /// never touch the map and its size is bounded by the number of
  /// over-inserted or indebted tuples, not by the table.  Batch items
  /// are distinct (the seen map dedups), so per-tuple transitions never
  /// race even under parallel phase A; the shard mutex only guards map
  /// structure against different tuples sharing a shard.
  struct CountShard {
    explicit CountShard(const Table* t) : map(8, HashAdapter{t}) {}
    std::mutex mu;
    std::unordered_map<T, std::int64_t, HashAdapter> map;
  };
  static constexpr std::size_t kCountShards = 16;

  CountShard& count_shard(const T& t) const {
    return *count_shards_[decl_.hash_(t) % kCountShards];
  }

  std::int64_t load_count(const T& t) const {
    {
      CountShard& s = count_shard(t);
      std::lock_guard<std::mutex> lk(s.mu);
      const auto it = s.map.find(t);
      if (it != s.map.end()) return it->second;
    }
    return store_->contains(t) ? 1 : 0;
  }

  void store_count(const T& t, std::int64_t c) {
    CountShard& s = count_shard(t);
    std::lock_guard<std::mutex> lk(s.mu);
    if (c == 0 || c == 1) {
      s.map.erase(t);
    } else {
      s.map[t] = c;
    }
  }

  void clear_count(const T& t) {
    CountShard& s = count_shard(t);
    std::lock_guard<std::mutex> lk(s.mu);
    s.map.erase(t);
  }

  /// Applies a net signed multiplicity to one tuple and performs whatever
  /// Gamma/pk/index mutation its presence transition demands.  Returns
  /// the phase-B keep code.
  std::uint8_t counted_apply(const T& t, std::int64_t s) {
    const std::int64_t before = load_count(t);
    const std::int64_t after = before + s;
    if (s > 0) {
      if (before <= 0 && after >= 1) {
        // 0 (or a debt) -> positive: the tuple becomes present.
        if (!insert_gamma(t)) {
          // A pk conflict blocks presence entirely; the insert is
          // dropped rather than banking multiplicity for a tuple the
          // invariant rejects, and any debt stays on the books.
          return kKeepNone;
        }
        if (before < 0) {
          stats_.annihilated.fetch_add(-before, std::memory_order_relaxed);
        }
        store_count(t, after);
        return kKeepInsert;
      }
      if (after <= 0) {
        // Fully consumed by an outstanding debt: no firing.
        stats_.annihilated.fetch_add(s, std::memory_order_relaxed);
        store_count(t, after);
        return kKeepNone;
      }
      // Present and stays present: pure multiplicity growth.
      stats_.gamma_dups.fetch_add(s, std::memory_order_relaxed);
      store_count(t, after);
      return kKeepNone;
    }
    // s < 0: retraction.
    if (before >= 1 && after <= 0) {
      gamma_remove(t);
      store_count(t, after);  // after <= -1 keeps the residue as debt
      if (after < 0) {
        stats_.retract_debts.fetch_add(-after, std::memory_order_relaxed);
      }
      has_retracted_.store(true, std::memory_order_relaxed);
      return kKeepRetract;
    }
    if (before >= 1) {
      // Stays present: multiplicity shrinks.
      store_count(t, after);
      return kKeepNone;
    }
    // Absent: the retract arrived before its insert — record a debt.
    stats_.retract_debts.fetch_add(-s, std::memory_order_relaxed);
    store_count(t, after);
    return kKeepNone;
  }

  /// Resolves an upsert at processing time against the live pk index.
  /// Any displaced tuple is written into *displaced for phase B's
  /// retraction cascade.
  std::uint8_t upsert_gamma(const T& t, T* displaced) {
    const std::int64_t pk = decl_.pk_(t);
    const std::optional<T> existing = peek_pk(pk);
    if (existing && *existing == t) {
      stats_.gamma_dups.fetch_add(1, std::memory_order_relaxed);
      return kKeepNone;
    }
    if (existing) {
      // Force the incumbent out entirely, whatever its multiplicity: an
      // upsert is a statement about the key's current row, not a
      // counted delta.
      clear_count(*existing);
      gamma_remove(*existing);
      has_retracted_.store(true, std::memory_order_relaxed);
      stats_.upsert_replaced.fetch_add(1, std::memory_order_relaxed);
      *displaced = *existing;
    }
    clear_count(t);  // wipe any debt: the key's row is now exactly t
    const bool fresh = insert_gamma(t);
    JSTAR_CHECK_MSG(fresh, "upsert into '" + name_ +
                               "' failed to claim the freed pk slot");
    return existing ? kKeepUpsert : kKeepInsert;
  }

  /// Removes a tuple that just transitioned to absent: the pk slot (only
  /// when this tuple owns it), the store itself, and every secondary
  /// index.  Eager index erasure keeps routed queries from resurrecting
  /// retracted tuples; the probe-side revalidation in execute_plan backs
  /// it up for any window where an index entry is momentarily stale.
  void gamma_remove(const T& t) {
    if (has_pk_) {
      const std::int64_t pk = decl_.pk_(t);
      const std::optional<T> existing = peek_pk(pk);
      if (existing && *existing == t) {
        if (env_.parallel) {
          pk_index_par_.erase(pk);
        } else {
          pk_index_seq_.erase(pk);
        }
      }
    }
    if (store_->erase(t)) {
      stats_.gamma_erased.fetch_add(1, std::memory_order_relaxed);
    }
    for (const auto& idx : indexes_) idx->erase(t);
  }

  PlannerCatalog build_planner_catalog() const {
    PlannerCatalog cat;
    cat.pk_tag = has_pk_ ? decl_.pk_tag_ : nullptr;
    cat.hash_indexes.reserve(indexes_.size());
    for (const auto& idx : indexes_) cat.hash_indexes.push_back({idx->tags});
    cat.range_indexes.reserve(range_indexes_.size());
    for (const auto& ri : range_indexes_) {
      cat.range_indexes.push_back({ri.tags});
    }
    cat.store_ordered = store_ != nullptr && store_->ordered();
    cat.no_gamma = no_gamma_;
    if (const auto* ops = dynamic_cast<const ColumnarOps<T>*>(store_.get())) {
      cat.column_tags = ops->column_tags();
    }
    return cat;
  }

  /// Retention sweep hook (EpochWindowStore retire listener): drop the
  /// retired tuple from every secondary index.  Counted tables also
  /// forget the tuple's multiplicity (and any debt): window retirement
  /// erases a tuple completely, keeping count map and store in
  /// agreement.
  void retire_from_indexes(const T& t) {
    if (decl_.counted_ && !count_shards_.empty()) clear_count(t);
    for (const auto& idx : indexes_) {
      if (idx->erase(t)) {
        stats_.index_retired.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Normalises an exact predicate's bindings into the kernel interface's
  /// inclusive intervals (equalities become [v, v]).
  static std::vector<typename ColumnarOps<T>::Bound> kernel_bounds(
      const query::Pred<T>& pred) {
    std::vector<typename ColumnarOps<T>::Bound> out;
    out.reserve(pred.eq_bindings().size() + pred.range_bindings().size());
    for (const query::EqBinding& e : pred.eq_bindings()) {
      out.push_back({e.field_tag, e.value, e.value});
    }
    for (const query::RangeBinding& r : pred.range_bindings()) {
      out.push_back({r.field_tag, r.lo, r.hi});
    }
    return out;
  }

  void note_kernel(const typename ColumnarOps<T>::KernelStats& ks) const {
    stats_.columnar_kernels.fetch_add(1, std::memory_order_relaxed);
    stats_.columnar_rows.fetch_add(ks.rows, std::memory_order_relaxed);
    stats_.columnar_selected.fetch_add(ks.selected,
                                       std::memory_order_relaxed);
    if (ks.morsels > 0) note_morsels(static_cast<std::size_t>(ks.morsels));
  }

  void note_morsels(std::size_t splits) const {
    stats_.morsel_runs.fetch_add(1, std::memory_order_relaxed);
    stats_.morsel_splits.fetch_add(static_cast<std::int64_t>(splits),
                                   std::memory_order_relaxed);
  }

  /// Morsel-parallel full sweep: asks the store to run its fixed-size
  /// morsel partition over the pool, reducing each morsel into its own
  /// Partial slot (disjoint per morsel — no synchronisation).  Returns
  /// the partials in storage order, or nullopt when the store declined
  /// (no pool hinted, morsels switched off, below the sequential cutoff,
  /// or a substrate without contiguous spans) — callers then run their
  /// sequential path.  `per_tuple` must be pure: it runs concurrently.
  template <typename Partial, typename PerTuple>
  std::optional<std::vector<Partial>> scan_morsel_parts(
      const PerTuple& per_tuple) const {
    if (store_ == nullptr) return std::nullopt;
    std::vector<Partial> parts;
    const bool ran = store_->scan_morsels(
        [&](std::size_t m) { parts.resize(m); },
        [&](const T* data, std::size_t n, std::size_t mi) {
          Partial& p = parts[mi];
          for (std::size_t i = 0; i < n; ++i) per_tuple(p, data[i]);
        });
    if (!ran) return std::nullopt;
    note_morsels(parts.size());
    return parts;
  }

  /// Runs one compiled access path, applying `pred` as the residual filter
  /// on every routed path (so routing can never widen the result set) and
  /// counting which path served the query.  Windowed tables additionally
  /// re-validate index/pk hits against the store: the pk index is
  /// deliberately never retired (get_unique's documented contract), and
  /// revalidation keeps the sweep-based index maintenance honest even
  /// against custom stores.
  void execute_plan(const QueryPlan& plan, const query::Pred<T>& pred,
                    const std::function<void(const T&)>& fn) const {
    // Probe hits must be revalidated once tuples can disappear mid-run:
    // retention windows always could, and a counted table starts to the
    // moment its first retraction lands (sticky flag — erasure is eager,
    // but a racing probe may still hold a just-erased hit).
    const bool check_live =
        retiring_store_ != nullptr ||
        (decl_.counted_ && has_retracted_.load(std::memory_order_relaxed));
    std::int64_t examined = 0, passed = 0;
    // Hits coming from a side structure (pk index, secondary hash index)
    // may be stale on windowed tables — the pk index is deliberately
    // never retired — so they are revalidated against the store.  Tuples
    // delivered by the store's *own* scans are live by construction, and
    // re-entering the store from inside one of its scan callbacks would
    // self-deadlock on the flat substrates' lock, so the scan-side
    // residual skips the membership re-check.
    const auto residual_probe = [&](const T& t) {
      ++examined;
      if (pred(t) && (!check_live || store_->contains(t))) {
        ++passed;
        fn(t);
      }
    };
    const auto residual_scan = [&](const T& t) {
      ++examined;
      if (pred(t)) {
        ++passed;
        fn(t);
      }
    };
    switch (plan.path) {
      case AccessPath::AlwaysEmpty:
        stats_.empty_plans.fetch_add(1, std::memory_order_relaxed);
        return;
      case AccessPath::PkProbe: {
        stats_.pk_probes.fetch_add(1, std::memory_order_relaxed);
        if (const std::optional<T> hit = peek_pk(plan.values[0])) {
          residual_probe(*hit);
        }
        break;
      }
      case AccessPath::IndexProbe: {
        stats_.index_lookups.fetch_add(1, std::memory_order_relaxed);
        const SecondaryIndex& idx =
            *indexes_[static_cast<std::size_t>(plan.slot)];
        idx.lookup(idx.key_from_values(plan.values), residual_probe);
        break;
      }
      case AccessPath::RangeScan: {
        stats_.range_scans.fetch_add(1, std::memory_order_relaxed);
        execute_range(plan, residual_scan);
        break;
      }
      case AccessPath::FullScan:
        stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
        if (plan.columnar && columnar_ops_ != nullptr) {
          // Vectorized pushdown: the exact predicate is evaluated against
          // the columns (selection mask), and only selected rows are
          // reconstituted — no per-tuple residual call.
          note_kernel(columnar_ops_->kernel_select(
              kernel_bounds(pred), [&](const T* data, std::size_t n) {
                for (std::size_t i = 0; i < n; ++i) fn(data[i]);
              }));
          return;
        }
        raw_scan([&](const T& t) {
          if (pred(t)) fn(t);
        });
        return;
    }
    stats_.residual_rows.fetch_add(examined, std::memory_order_relaxed);
    stats_.residual_hits.fetch_add(passed, std::memory_order_relaxed);
  }

  /// Materialises the plan's boundary tuples through the range index's
  /// lower_bound factory and seeks the ordered store.  Every degradation
  /// errs on the wide side (the residual filter trims, so a seek may
  /// visit extra tuples but must never skip matching ones):
  ///  * an unbounded-below interval with no eq prefix has no seek origin
  ///    — residual-scan the whole store;
  ///  * a bound the factory could not represent exactly (a query constant
  ///    outside a narrower field type's range truncates; detected as a
  ///    failed getter round trip) widens to the residual scan (lo side)
  ///    or an open-above seek (hi side);
  ///  * an upper bound that cannot be incremented without int64 overflow
  ///    becomes an open-above seek.
  void execute_range(const QueryPlan& plan,
                     const std::function<void(const T&)>& residual) const {
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const RangeIndex& ri = range_indexes_[static_cast<std::size_t>(plan.slot)];
    std::vector<std::int64_t> lov = plan.values;
    // The INT64_MIN "unbounded below" sentinel is pushed like any other
    // bound: for an int64 leading field it round-trips (seek from the
    // store minimum, still bounded above); for a narrower field the
    // bound_exact check below catches the truncation and degrades.
    if (plan.has_range) lov.push_back(plan.lo);
    if (lov.empty()) {
      store_->scan(residual);
      return;
    }
    const T lo_t = ri.lower_bound(lov);
    if (!ri.bound_exact(lo_t, lov)) {
      store_->scan(residual);
      return;
    }
    std::vector<std::int64_t> hiv = plan.values;
    bool open_above = false;
    if (plan.has_range && plan.hi != kMax) {
      hiv.push_back(plan.hi + 1);
    } else if (!hiv.empty() && hiv.back() != kMax) {
      hiv.back() += 1;  // end of the eq prefix
    } else {
      open_above = true;
    }
    if (!open_above) {
      const T hi_t = ri.lower_bound(hiv);
      if (ri.bound_exact(hi_t, hiv) && lo_t < hi_t) {
        store_->scan_range(lo_t, hi_t, residual);
        return;
      }
    }
    store_->scan_from(lo_t, residual);
  }

  /// Store scan dispatch shared by scan() and the planner's residual
  /// full scan (no stats bump): chunk-capable stores get the templated
  /// per-span loop — one type-erased hop per contiguous span, the
  /// visitor inlined in the loop — the rest the classic per-tuple
  /// type-erased visitor.
  template <typename Fn>
  void raw_scan(Fn&& fn) const {
    if (store_->chunked()) {
      store_->scan_chunks([&](const T* data, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) fn(data[i]);
      });
    } else {
      store_->scan(std::function<void(const T&)>(std::forward<Fn>(fn)));
    }
  }

  std::optional<T> peek_pk(std::int64_t pk) const {
    if (env_.parallel) {
      T out;
      if (pk_index_par_.lookup(pk, out)) return out;
      return std::nullopt;
    }
    auto it = pk_index_seq_.find(pk);
    if (it == pk_index_seq_.end()) return std::nullopt;
    return it->second;
  }

  std::int64_t current_epoch() const {
    return env_.epoch != nullptr
               ? env_.epoch->load(std::memory_order_relaxed)
               : 0;
  }

  void fire_tuple(const DeltaKey& k, const T& t, int sign = +1) {
    if (sign > 0) {
      if (decl_.effect_) decl_.effect_(t);
    } else if (decl_.retract_effect_) {
      decl_.retract_effect_(t);
    }
    if (rules_.empty()) return;
    RuleCtx ctx(k, id_, env_.edges, current_epoch(), sign);
    for (const auto& r : rules_) {
      stats_.fires.fetch_add(1, std::memory_order_relaxed);
      r.fn(ctx, t);
    }
  }

  TableDecl<T> decl_;
  RuntimeEnv env_;
  std::vector<KeyStep> key_steps_;
  std::vector<std::unique_ptr<SecondaryIndex>> indexes_;
  std::vector<RangeIndex> range_indexes_;
  std::unique_ptr<GammaStore<T>> store_;
  // Kernel interface when the store is columnar (aliases store_).
  ColumnarOps<T>* columnar_ops_ = nullptr;
  // Set iff the store is a retain(N) engine-epoch window (aliases store_)
  // — either the bucketed EpochWindowStore or the in-place-compacting
  // FlatOrderedStore; retire_epochs drives it through this interface.
  RetiringStore<T>* window_store_ = nullptr;
  // Set for either retention flavour (retain or retain_epochs); the retire
  // listener sweeping the secondary indexes hangs off this.
  RetiringStore<T>* retiring_store_ = nullptr;
  // True only for tuple-carried epoch windows (retain_epochs), whose
  // insert path can retire buckets mid-run (see update_indexes).
  bool tuple_epoch_window_ = false;
  PlannerCatalog catalog_;  // built once by configure()
  std::vector<NamedRule> rules_;
  bool has_pk_ = false;
  // Counted (multiset) Gamma: the side count map's shards, plus a sticky
  // flag that arms probe revalidation once any retraction has removed a
  // tuple (stale index/pk hits become possible from then on).
  std::vector<std::unique_ptr<CountShard>> count_shards_;
  std::atomic<bool> has_retracted_{false};
  // Primary-key index: one of these is active depending on strategy.
  std::unordered_map<std::int64_t, T> pk_index_seq_;
  mutable concurrent::StripedHashMap<std::int64_t, T> pk_index_par_{64};
  // --- batch-at-a-time emission state ---
  const std::uint64_t emit_serial_ = next_emit_serial();
  std::atomic<bool> emit_dirty_{false};  // any record buffered since flush
  std::mutex emit_mu_;  // guards emit_buffers_ registration
  std::vector<std::unique_ptr<EmitBuffer>> emit_buffers_;
};

}  // namespace jstar
