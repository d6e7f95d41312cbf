// Randomized differential harness for the async pipelined executor
// (§2 stage 3, src/dist/sharded.h), built on the shared program
// generator/oracle in tests/differential.h: seeded random rule programs
// (random fan-out, cross-shard key routing, 1/2/3/8 shards), asserting the
// async fixpoint is tuple-for-tuple identical to (a) a plain C++ worklist
// oracle, (b) the sequential single-Engine reference, and (c) the BSP
// sharded reference.  This is the JastAdd-style equivalence pinning: an
// aggressive schedule is only trusted against a reference evaluator.
//
// Sweep sizes scale with JSTAR_TEST_SEEDS (default 200; the nightly stress
// job runs 2000) and failures print a one-seed replay command.
//
// Also covered here: the EngineOptions flag matrix (no_delta x no_gamma x
// task_per_rule) differentially against the oracle — these flags were
// previously only exercised one at a time — plus deterministic
// exception propagation when several shards throw (lowest shard id wins)
// and the async report's per-shard busy/drain counters.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "differential.h"
#include "dist/sharded.h"
#include "util/rng.h"

namespace jstar::dist {
namespace {

using difftest::Program;
using difftest::StoreKind;
using difftest::Tok;
using difftest::expect_phases_split;
using difftest::expensive_seed;
using difftest::oracle_fixpoint;
using difftest::random_program;
using difftest::random_small_program;
using difftest::repro;
using difftest::seed_base;
using difftest::seed_count;
using difftest::sharded_fixpoint;
using difftest::single_engine_fixpoint;
using difftest::tok_decl;
using difftest::with_expensive_rules;

// ---------------------------------------------------------------------------
// The differential sweep: >= 200 seeds, shard counts cycling 1/2/3/8.
// Sequential shard engines keep the sweep fast; every 8th seed upgrades to
// parallel engines on the shared pool to also exercise that combination.
// ---------------------------------------------------------------------------

TEST(AsyncDifferential, SeededSweepMatchesOracleAndBothReferences) {
  constexpr const char* kFilter =
      "AsyncDifferential.SeededSweepMatchesOracleAndBothReferences";
  const int shard_choices[] = {1, 2, 3, 8};
  const std::uint64_t base = seed_base();
  const std::uint64_t count = seed_count(200);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    const Program p = random_program(seed * 0x9e3779b9ULL + 1);
    const int shards = shard_choices[seed % 4];
    const bool parallel_engines = (seed % 8) == 7;

    const std::set<Tok> expect = oracle_fixpoint(p);
    const std::set<Tok> seq_ref = single_engine_fixpoint(p);
    const std::set<Tok> bsp =
        sharded_fixpoint(p, shards, ShardedMode::Bsp, !parallel_engines);
    const std::set<Tok> async =
        sharded_fixpoint(p, shards, ShardedMode::Async, !parallel_engines);

    ASSERT_EQ(seq_ref, expect) << repro(seed, "test_dist_async", kFilter);
    ASSERT_EQ(bsp, expect) << "shards " << shards << ", "
                           << repro(seed, "test_dist_async", kFilter);
    ASSERT_EQ(async, expect)
        << "shards " << shards
        << (parallel_engines ? " (parallel engines), "
                             : " (sequential engines), ")
        << repro(seed, "test_dist_async", kFilter);
  }
}

// ---------------------------------------------------------------------------
// The same sweep with the batched fabric forced into its corner regimes:
// tiny sender batches, a tiny mailbox capacity (every cross-shard flush
// throttles) and a drain floor larger than most epochs (the top-up wait
// path).  Correctness must be knob-independent — the knobs move tuples
// between flushes and epochs, never in or out of the fixpoint — and
// termination must still be detected with credits granted/returned in
// bulk.
// ---------------------------------------------------------------------------

TEST(AsyncDifferential, BackpressureAndTinyBatchesMatchOracle) {
  constexpr const char* kFilter =
      "AsyncDifferential.BackpressureAndTinyBatchesMatchOracle";
  const int shard_choices[] = {1, 2, 3, 8};
  // Three corner fabrics: unbatched+tight capacity, batch boundary
  // straddling + throttle + top-up, and flush-threshold-never-reached
  // (every delivery rides the flush-before-idle path).
  const ShardedOptions fabrics[] = {
      [] {
        ShardedOptions o;
        o.async_batch = 1;
        o.min_drain_batch = 1;
        o.mailbox_capacity = 2;
        return o;
      }(),
      [] {
        ShardedOptions o;
        o.async_batch = 3;
        o.min_drain_batch = 5;
        o.mailbox_capacity = 4;
        return o;
      }(),
      [] {
        ShardedOptions o;
        o.async_batch = 1 << 20;
        o.min_drain_batch = 7;
        o.mailbox_capacity = 8;
        return o;
      }(),
  };
  const std::uint64_t base = seed_base();
  const std::uint64_t count = seed_count(200);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    const Program p = random_program(seed * 0x2545f491ULL + 11);
    const int shards = shard_choices[seed % 4];
    const ShardedOptions& fabric = fabrics[seed % 3];

    const std::set<Tok> expect = oracle_fixpoint(p);
    const std::set<Tok> async = sharded_fixpoint(
        p, shards, ShardedMode::Async, /*sequential_engines=*/true, nullptr,
        difftest::StoreKind::Default, &fabric);
    ASSERT_EQ(async, expect)
        << "shards " << shards << ", async_batch " << fabric.async_batch
        << ", min_drain_batch " << fabric.min_drain_batch
        << ", mailbox_capacity " << fabric.mailbox_capacity << ", "
        << repro(seed, "test_dist_async", kFilter);
  }
}

// ---------------------------------------------------------------------------
// EngineOptions flag matrix: no_delta x no_gamma x task_per_rule, swept
// differentially.  The programs use the small shape (2 duplicate rules,
// low fan-out/depth) because -noGamma removes set-semantics dedup: every
// derivation path is walked, and the observed set is collected through
// the table effect (fires once per delivery) rather than a Gamma scan.
// Expensive-rule seeds split the parallel fire phases, which with
// -noDelta makes pool workers deliver straight into Gamma.
// ---------------------------------------------------------------------------

TEST(EngineOptionsMatrix, AllFlagCombinationsMatchOracle) {
  constexpr const char* kFilter =
      "EngineOptionsMatrix.AllFlagCombinationsMatchOracle";
  const std::uint64_t base = seed_base();
  const std::uint64_t count = seed_count(24);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    Program p = random_small_program(seed * 0x51ed2701ULL + 3);
    if (expensive_seed(seed)) p = with_expensive_rules(p);
    const std::set<Tok> expect = oracle_fixpoint(p);
    for (const bool sequential : {true, false}) {
      for (const bool no_delta : {false, true}) {
        for (const bool no_gamma : {false, true}) {
          // task_per_rule only exists in parallel mode.
          for (const bool task_per_rule :
               sequential ? std::vector<bool>{false}
                          : std::vector<bool>{false, true}) {
            EngineOptions opts;
            opts.sequential = sequential;
            opts.threads = 2;
            opts.task_per_rule = task_per_rule;
            if (no_delta) opts.no_delta.insert("Tok");
            if (no_gamma) opts.no_gamma.insert("Tok");
            const std::string where =
                "sequential=" + std::to_string(sequential) +
                " no_delta=" + std::to_string(no_delta) +
                " no_gamma=" + std::to_string(no_gamma) +
                " task_per_rule=" + std::to_string(task_per_rule) + ", " +
                repro(seed, "test_dist_async", kFilter);
            RunReport r;
            ASSERT_EQ(single_engine_fixpoint(p, opts, StoreKind::Default, &r),
                      expect)
                << where;
            if (!sequential && expensive_seed(seed)) {
              expect_phases_split(p, r, where);
            }
          }
        }
      }
    }
  }
}

TEST(AsyncDifferential, AsyncMessageCountsAreDeterministicAcrossRuns) {
  const Program p = random_program(4242);
  ShardedRunReport first;
  (void)sharded_fixpoint(p, 3, ShardedMode::Async, true, &first);
  for (int i = 0; i < 5; ++i) {
    ShardedRunReport r;
    const std::set<Tok> got =
        sharded_fixpoint(p, 3, ShardedMode::Async, true, &r);
    EXPECT_EQ(got, oracle_fixpoint(p));
    // Per-(sender, destination, run) dedup makes the counts a pure
    // function of the derived tuple sets, like BSP's per-superstep counts.
    EXPECT_EQ(r.messages, first.messages) << "run " << i;
    EXPECT_EQ(r.local_messages, first.local_messages) << "run " << i;
    // local_tuples is NOT schedule-independent: two senders pushing the
    // same tuple dedup inside one mailbox epoch but deliver twice across
    // two, and the epoch grouping depends on drain timing.  Every fixpoint
    // tuple is delivered at least once, so the fixpoint size is a floor.
    EXPECT_GE(r.local_tuples,
              static_cast<std::int64_t>(oracle_fixpoint(p).size()))
        << "run " << i;
  }
}

TEST(AsyncDifferential, ReportCarriesPerShardCounters) {
  const Program p = random_program(77);
  ShardedRunReport r;
  (void)sharded_fixpoint(p, 3, ShardedMode::Async, true, &r);
  ASSERT_EQ(r.shard_stats.size(), 3u);
  EXPECT_GE(r.supersteps, 1);
  EXPECT_GE(r.epochs, 1);
  std::int64_t drained = 0, runs = 0;
  for (const ShardStats& st : r.shard_stats) {
    EXPECT_GE(st.runs, 1);  // every shard spends its initial token
    EXPECT_GE(st.busy_seconds, 0.0);
    EXPECT_GE(st.idle_seconds, 0.0);
    drained += st.drained_tuples;
    runs += st.runs;
  }
  // Every drained tuple traces back to a counted send or a seed; the
  // bound is not tight because cross-sender duplicates within one epoch
  // collapse in the destination mailbox.
  EXPECT_GT(drained, 0);
  EXPECT_LE(drained, r.messages + r.local_messages +
                         static_cast<std::int64_t>(p.seeds.size()));
  EXPECT_GE(runs, 3);
  EXPECT_GT(r.local_tuples, 0);
}

TEST(AsyncDifferential, EventDrivenReruns) {
  // Seeds added after a completed run must continue the same databases,
  // in async mode exactly as in BSP (Engine::run()'s event-driven
  // contract lifted to the cluster).
  Program p;
  p.keys = 8;
  p.max_gen = 6;
  p.adj.assign(8, {});
  for (std::int64_t k = 0; k < 8; ++k) {
    p.adj[static_cast<std::size_t>(k)] = {(k + 1) % 8};
  }
  p.seeds = {Tok{0, 0}};

  EngineOptions opts;
  opts.sequential = true;
  ShardedOptions sopts;
  sopts.mode = ShardedMode::Async;
  std::vector<Table<Tok>*> tables(2);
  ShardedEngine<Tok> cluster(
      2, opts, sopts,
      [&p, &tables](int shard, Engine& eng, Sender<Tok>& sender) {
        auto& toks = eng.table(tok_decl());
        tables[static_cast<std::size_t>(shard)] = &toks;
        eng.rule(toks, "derive", [&p, &sender](RuleCtx&, const Tok& t) {
          if (t.gen + 1 > p.max_gen) return;
          for (const std::int64_t k2 :
               p.adj[static_cast<std::size_t>(t.key)]) {
            sender.send(partition_of(k2, 2), Tok{k2, t.gen + 1});
          }
        });
        return [&toks, &eng](const Tok& t) { eng.put(toks, t); };
      });

  cluster.seed(partition_of(0, 2), Tok{0, 0});
  cluster.run();
  auto count_all = [&] {
    std::size_t n = 0;
    for (auto* t : tables) n += t->gamma_size();
    return n;
  };
  const std::size_t after_first = count_all();
  EXPECT_EQ(after_first, 7u);  // gens 0..6 walking the ring from key 0

  cluster.seed(partition_of(5, 2), Tok{5, 0});  // a new event arrives
  cluster.run();
  EXPECT_GT(count_all(), after_first);
}

// ---------------------------------------------------------------------------
// Deterministic exception propagation (the latent-bug fix): when several
// shards throw in one round, the lowest shard id's exception must win, in
// both sequential and threaded BSP supersteps.  Async aborts all shards
// and rethrows the lowest id that actually threw before shutdown.
// ---------------------------------------------------------------------------

std::string run_throwing_cluster(int shards, bool sequential_engines,
                                 ShardedMode mode, int throw_from_shard) {
  EngineOptions opts;
  opts.sequential = sequential_engines;
  opts.threads = 2;
  ShardedOptions sopts;
  sopts.mode = mode;
  ShardedEngine<Tok> cluster(
      shards, opts, sopts,
      [throw_from_shard](int shard, Engine& eng, Sender<Tok>&) {
        auto& toks = eng.table(tok_decl());
        eng.rule(toks, "maybe_throw",
                 [shard, throw_from_shard](RuleCtx&, const Tok&) {
                   if (shard >= throw_from_shard) {
                     throw std::runtime_error("boom from shard " +
                                              std::to_string(shard));
                   }
                 });
        return [&toks, &eng](const Tok& t) { eng.put(toks, t); };
      });
  // One seed per shard: every shard >= throw_from_shard throws in the
  // same (first) round.
  for (int s = 0; s < shards; ++s) {
    cluster.seed(s, Tok{s, 0});  // dummy routing: deliver directly to s
  }
  try {
    cluster.run();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ShardedExceptions, LowestShardIdWinsInSequentialBsp) {
  for (int trial = 0; trial < 5; ++trial) {
    EXPECT_EQ(run_throwing_cluster(4, true, ShardedMode::Bsp, 2),
              "boom from shard 2");
  }
}

TEST(ShardedExceptions, LowestShardIdWinsInThreadedBsp) {
  for (int trial = 0; trial < 5; ++trial) {
    EXPECT_EQ(run_throwing_cluster(4, false, ShardedMode::Bsp, 1),
              "boom from shard 1");
  }
}

TEST(ShardedExceptions, AsyncPropagatesAThrowingShard) {
  for (int trial = 0; trial < 5; ++trial) {
    const std::string what =
        run_throwing_cluster(4, true, ShardedMode::Async, 2);
    EXPECT_TRUE(what == "boom from shard 2" || what == "boom from shard 3")
        << "got: \"" << what << '"';
  }
}

TEST(ShardedExceptions, ClusterRemainsUsableForSeparateInstances) {
  // A throwing run must not poison a fresh cluster built afterwards (the
  // shared pool and mailboxes are per-instance).
  EXPECT_EQ(run_throwing_cluster(3, false, ShardedMode::Bsp, 0),
            "boom from shard 0");
  const Program p = random_program(9);
  EXPECT_EQ(sharded_fixpoint(p, 3, ShardedMode::Async, false),
            oracle_fixpoint(p));
}

}  // namespace
}  // namespace jstar::dist
