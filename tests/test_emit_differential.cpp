// Differential sweep for batch-at-a-time rule firing (emit buffers): every
// rule put is staged in a per-worker buffer and flushed into the Delta
// tree by the coordinator once per fire phase.  The results are pinned
// against the engine-free oracle, or against the sequential engine where
// no closed-form oracle exists (upsert waves, retain(N) epoch waves),
// across sequential / BSP / async sharding, the default / flat / columnar
// substrates, counted retract/upsert waves and streaming-style epoch
// boundaries, at 1/2/4/8 workers.
//
// Why this must hold: append_one (core/table.h) is the single definition
// of batch-combining semantics — dedup, counted sign accumulation, upsert
// supersede — and the flush replays every record through it.  Any
// divergence here means the flush reordered, dropped or double-applied a
// record.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "differential.h"

namespace jstar::difftest {
namespace {

constexpr const char* kExe = "test_emit_differential";

// --- set-semantics derivation programs -------------------------------------

// Sequential mode is the strictest pin: one worker, one buffer, so the
// flush replays the exact put order.
TEST(EmitDifferential, SequentialMatchesOracleEveryStore) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    const Program p = random_program(seed);
    const std::set<Tok> want = oracle_fixpoint(p);
    for (const StoreKind store :
         {StoreKind::Default, StoreKind::FlatOrdered, StoreKind::Columnar}) {
      EngineOptions opts;
      opts.sequential = true;
      EXPECT_EQ(single_engine_fixpoint(p, opts, store), want)
          << to_string(store) << " diverged from oracle, "
          << repro(seed, kExe, "EmitDifferential.*EveryStore");
    }
  }
}

// The headline acceptance gate: buffered results are bit-identical at any
// worker count.  Expensive-rule seeds put the fire phases on the pool, so
// buffers of several threads reach each flush.
TEST(EmitDifferential, BufferedBitIdenticalAcrossWorkerCounts) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    Program p = random_program(seed);
    if (expensive_seed(seed)) p = with_expensive_rules(p);
    const std::set<Tok> want = oracle_fixpoint(p);
    for (const int threads : {1, 2, 4, 8}) {
      EngineOptions opts;
      opts.sequential = false;
      opts.threads = threads;
      RunReport r;
      const std::string where =
          std::to_string(threads) + " workers, " +
          repro(seed, kExe, "EmitDifferential.*WorkerCounts");
      EXPECT_EQ(single_engine_fixpoint(p, opts, StoreKind::Default, &r), want)
          << where;
      if (expensive_seed(seed)) expect_phases_split(p, r, where);
    }
  }
}

// task_per_rule fires one item per (tuple, rule); its puts ride the same
// thread-local buffers and must flush to the same fixpoint, also when the
// items are shared with the pool.
TEST(EmitDifferential, BufferedTaskPerRule) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    Program p = random_small_program(seed);  // rules = 2
    if (expensive_seed(seed)) p = with_expensive_rules(p);
    const std::set<Tok> want = oracle_fixpoint(p);
    EngineOptions opts;
    opts.sequential = false;
    opts.threads = 4;
    opts.task_per_rule = true;
    RunReport r;
    const std::string where =
        repro(seed, kExe, "EmitDifferential.BufferedTaskPerRule");
    EXPECT_EQ(single_engine_fixpoint(p, opts, StoreKind::Default, &r), want)
        << where;
    if (expensive_seed(seed)) expect_phases_split(p, r, where);
  }
}

// Sharded schedules: buffered emit runs inside every shard engine while
// cross-shard traffic rides the mailbox; BSP and async must both land on
// the oracle's fixpoint.
TEST(EmitDifferential, ShardedMatchesOracle) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    const Program p = random_program(seed);
    const std::set<Tok> want = oracle_fixpoint(p);
    for (const dist::ShardedMode mode :
         {dist::ShardedMode::Bsp, dist::ShardedMode::Async}) {
      EXPECT_EQ(sharded_fixpoint(p, /*shards=*/3, mode,
                                 /*sequential_engines=*/false),
                want)
          << (mode == dist::ShardedMode::Bsp ? "bsp" : "async") << ", "
          << repro(seed, kExe, "EmitDifferential.ShardedMatchesOracle");
    }
  }
}

// --- counted (multiset) schedules ------------------------------------------

// Retract-heavy waves: sign accumulation happens inside the flush's
// append_one replay, so counted annihilation must survive buffering under
// every mode and substrate.
TEST(EmitDifferential, CountedRetractWavesBuffered) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    const CountedCase c = make_delete_heavy_case(seed);
    const std::set<Tok> want = counted_oracle(c);
    for (const StoreKind store : {StoreKind::Default, StoreKind::Columnar}) {
      EngineOptions par;
      par.sequential = false;
      par.threads = 4;
      EXPECT_EQ(counted_single_fixpoint(c, par, store), want)
          << to_string(store) << " parallel buffered, "
          << repro(seed, kExe, "EmitDifferential.CountedRetractWavesBuffered");
    }
    for (const dist::ShardedMode mode :
         {dist::ShardedMode::Bsp, dist::ShardedMode::Async}) {
      EXPECT_EQ(counted_sharded_fixpoint(c, /*shards=*/3, mode,
                                         /*sequential_engines=*/false),
                want)
          << (mode == dist::ShardedMode::Bsp ? "bsp" : "async") << ", "
          << repro(seed, kExe, "EmitDifferential.CountedRetractWavesBuffered");
    }
  }
}

// Upsert-heavy keyed waves: the kUpsertSign supersede must land like the
// sequential engine's (last overwrite per quiescence interval wins).
TEST(EmitDifferential, UpsertWavesBuffered) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    const CountedCase c = make_upsert_heavy_case(seed);
    EngineOptions seq;
    seq.sequential = true;
    EngineOptions par;
    par.sequential = false;
    par.threads = 4;
    EXPECT_EQ(upsert_single_fixpoint(c, par), upsert_single_fixpoint(c, seq))
        << repro(seed, kExe, "EmitDifferential.UpsertWavesBuffered");
  }
}

// Streaming-style epochs: begin_epoch() + retain(N) GC between waves, so
// flushes interleave with epoch boundaries and tuple retirement.
TEST(EmitDifferential, EpochWavesWithRetainBuffered) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    const CountedCase c = make_delete_heavy_case(seed);
    EngineOptions seq;
    seq.sequential = true;
    EngineOptions par;
    par.sequential = false;
    par.threads = 4;
    const std::set<Tok> want = counted_single_fixpoint(
        c, seq, StoreKind::Default, /*retain=*/2, /*epoch_per_wave=*/true);
    EXPECT_EQ(counted_single_fixpoint(c, par, StoreKind::Default,
                                      /*retain=*/2, /*epoch_per_wave=*/true),
              want)
        << repro(seed, kExe, "EmitDifferential.EpochWavesWithRetainBuffered");
  }
}

// --- emit mechanics --------------------------------------------------------

// Rule puts travel through the emit buffers in both modes and surface
// their counters through RunReport, while -noDelta tables keep their
// inline delivery and never touch a buffer.
TEST(EmitMechanics, CountersSurface) {
  struct Hop {
    std::int64_t n;
    auto operator<=>(const Hop&) const = default;
  };
  for (const bool sequential : {true, false}) {
    for (const bool no_delta : {false, true}) {
      EngineOptions opts;
      opts.sequential = sequential;
      opts.threads = 2;
      if (no_delta) opts.no_delta.insert("Hop");
      Engine eng(opts);
      auto& hop = eng.table(TableDecl<Hop>("Hop")
                                .orderby_lit("T")
                                .orderby_seq("n", &Hop::n)
                                .hash([](const Hop& h) {
                                  return hash_fields(h.n);
                                }));
      // 64 independent chains of 201 tuples each (seed i*1000 walks to
      // i*1000 + 200), so fire phases have real width and emit volume.
      eng.rule(hop, "step", [&](RuleCtx& ctx, const Hop& h) {
        if (h.n % 1000 < 200) hop.put(ctx, Hop{h.n + 1});
      });
      for (std::int64_t i = 0; i < 64; ++i) eng.put(hop, Hop{i * 1000});
      const RunReport r = eng.run();
      const std::string where = "sequential=" + std::to_string(sequential) +
                                " no_delta=" + std::to_string(no_delta);
      EXPECT_EQ(hop.gamma_size(), 64u * 201u) << where;
      if (no_delta) {
        EXPECT_EQ(r.emit_buffered, 0) << where;
        EXPECT_EQ(r.emit_flushes, 0) << where;
      } else {
        EXPECT_EQ(r.emit_buffered, 64 * 200) << where;
        EXPECT_GT(r.emit_flushes, 0) << where;
      }
    }
  }
}

// Puts issued through a hand-built RuleCtx between runs (the low-level
// escape hatch) land in buffers with no fire phase behind them; the next
// run() must flush the stragglers before its first pop.
TEST(EmitMechanics, StragglerBufferFlushedAtNextRun) {
  struct Ev {
    std::int64_t n;
    auto operator<=>(const Ev&) const = default;
  };
  EngineOptions opts;
  opts.sequential = true;
  Engine eng(opts);
  auto& ev = eng.table(TableDecl<Ev>("Ev")
                           .orderby_lit("T")
                           .orderby_seq("n", &Ev::n)
                           .hash([](const Ev& e) { return hash_fields(e.n); }));
  eng.put(ev, Ev{1});
  eng.run();
  EXPECT_EQ(ev.gamma_size(), 1u);
  // An empty `now` marks an initial put, so this lands in the emit buffer
  // with no process_batch (and no end-of-batch flush) behind it.
  RuleCtx ctx(DeltaKey{}, /*from_table=*/-1, /*edges=*/nullptr);
  ev.put(ctx, Ev{2});
  eng.run();
  EXPECT_EQ(ev.gamma_size(), 2u);
}

}  // namespace
}  // namespace jstar::difftest
