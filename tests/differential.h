// Shared randomized differential harness (the JastAdd-style equivalence
// discipline: an aggressive schedule is only trusted against a reference
// evaluator).  Extracted from tests/test_dist_async.cpp so every new
// execution mode — async sharding, streaming epochs, future backends —
// pins its fixpoint tuple-for-tuple against the same batch oracle.
//
// A random program is a directed multigraph over a small key universe plus
// a generation bound: a tuple (key, gen) derives (key2, gen+1) for every
// out-edge of key while gen+1 <= max_gen.  The fixpoint is the set of
// derivable (key, gen) pairs — finite, schedule independent, and rich in
// cross-shard traffic once keys are hash routed.
//
// Replayability: sweeps read their seed range from the environment —
//   JSTAR_TEST_SEEDS      how many seeds to run (default per call site,
//                         usually 200; the nightly stress job sets 2000),
//   JSTAR_TEST_SEED_BASE  first seed (default 0).
// Every assertion carries repro() so a CI failure log contains the exact
// one-seed reproduction command.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "dist/sharded.h"
#include "util/rng.h"

namespace jstar::difftest {

// --- seed-range scaling and failure replay ---------------------------------

inline std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') return def;
  return static_cast<std::uint64_t>(parsed);
}

/// Seeds per sweep (JSTAR_TEST_SEEDS, nightly-scaled).
inline std::uint64_t seed_count(std::uint64_t def = 200) {
  return env_u64("JSTAR_TEST_SEEDS", def);
}

/// First seed of the sweep (JSTAR_TEST_SEED_BASE, for replaying one seed).
inline std::uint64_t seed_base() { return env_u64("JSTAR_TEST_SEED_BASE", 0); }

/// Minimized reproduction command for a failing seed, for assertion
/// messages: rerunning the named test with the base pinned to the failing
/// seed and the count to 1 replays exactly the failing case.
inline std::string repro(std::uint64_t seed, const char* test_exe,
                         const char* gtest_filter) {
  return "seed " + std::to_string(seed) +
         " — replay: JSTAR_TEST_SEED_BASE=" + std::to_string(seed) +
         " JSTAR_TEST_SEEDS=1 ./" + test_exe +
         " --gtest_filter=" + gtest_filter;
}

// --- random programs and the engine-free oracle ----------------------------

struct Tok {
  std::int64_t key, gen;
  auto operator<=>(const Tok&) const = default;
};

struct Program {
  std::int64_t keys = 0;
  std::int64_t max_gen = 0;
  std::vector<std::vector<std::int64_t>> adj;  // out-edges per key
  std::vector<Tok> seeds;
  /// Rules per engine: 1 = "derive" only; 2 adds a duplicate "derive2"
  /// (same body), which leaves the fixpoint unchanged but doubles the
  /// derivation paths — the shape that exercises task_per_rule and the
  /// dedup layers.  Generators keep fanout/gen small when rules == 2 so
  /// the no-dedup (-noGamma) combinations stay bounded.
  int rules = 1;
  /// Time each firing of the first rule busy-waits (0 = none).  Cheap
  /// firings never leave the coordinator (lazy_split, core/table.h), so
  /// sweeps give some seeds an expensive rule to put phases on the pool.
  std::chrono::microseconds rule_cost{0};
};

/// `p` with a first rule just over the lazy-split budget: every fire
/// phase with a second item left splits after its first item.
inline Program with_expensive_rules(Program p) {
  p.rule_cost = kPhaseSplitBudget + std::chrono::microseconds(10);
  return p;
}

/// Expensive-rule seeds of the parallel sweeps: one in 40.
inline bool expensive_seed(std::uint64_t seed) { return seed % 40 == 0; }

inline Program random_program_shaped(std::uint64_t seed,
                                     std::uint64_t max_fanout,
                                     std::int64_t gen_cap, int rules) {
  SplitMix64 rng(seed);
  Program p;
  p.rules = rules;
  p.keys = 4 + static_cast<std::int64_t>(rng.next_below(29));  // 4..32
  p.max_gen =
      1 + static_cast<std::int64_t>(rng.next_below(
              static_cast<std::uint64_t>(gen_cap)));  // 1..gen_cap
  p.adj.resize(static_cast<std::size_t>(p.keys));
  for (auto& out : p.adj) {
    const std::uint64_t fanout = rng.next_below(max_fanout + 1);
    for (std::uint64_t f = 0; f < fanout; ++f) {
      out.push_back(static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(p.keys))));
    }
  }
  const std::uint64_t nseeds = 1 + rng.next_below(4);  // 1..4
  for (std::uint64_t i = 0; i < nseeds; ++i) {
    p.seeds.push_back(Tok{static_cast<std::int64_t>(rng.next_below(
                              static_cast<std::uint64_t>(p.keys))),
                          0});
  }
  return p;
}

/// The shape the async differential sweep has always used.
inline Program random_program(std::uint64_t seed) {
  return random_program_shaped(seed, /*max_fanout=*/3, /*gen_cap=*/7,
                               /*rules=*/1);
}

/// A smaller shape for the EngineOptions flag matrix: with -noGamma there
/// is no set-semantics dedup, so every derivation path is walked — keep
/// fanout and depth low enough that 2 rules x fanout 2 x gen <= 4 stays a
/// few hundred firings.
inline Program random_small_program(std::uint64_t seed) {
  return random_program_shaped(seed, /*max_fanout=*/2, /*gen_cap=*/4,
                               /*rules=*/2);
}

/// Engine-free worklist oracle.
inline std::set<Tok> oracle_fixpoint(const Program& p) {
  std::set<Tok> seen(p.seeds.begin(), p.seeds.end());
  std::vector<Tok> work(p.seeds.begin(), p.seeds.end());
  while (!work.empty()) {
    const Tok t = work.back();
    work.pop_back();
    if (t.gen + 1 > p.max_gen) continue;
    for (const std::int64_t k2 : p.adj[static_cast<std::size_t>(t.key)]) {
      const Tok next{k2, t.gen + 1};
      if (seen.insert(next).second) work.push_back(next);
    }
  }
  return seen;
}

/// Gamma substrate selector for differential sweeps: the flat tier
/// (core/flat_store.h) must compute the same fixpoints as the node-based
/// defaults under every schedule, so the harness entry points take one.
enum class StoreKind { Default, FlatOrdered, FlatHash, Columnar };

inline const char* to_string(StoreKind k) {
  switch (k) {
    case StoreKind::Default: return "default";
    case StoreKind::FlatOrdered: return "flat-ordered";
    case StoreKind::FlatHash: return "flat-hash";
    case StoreKind::Columnar: return "columnar";
  }
  return "?";
}

inline TableDecl<Tok> tok_decl(StoreKind store = StoreKind::Default) {
  TableDecl<Tok> decl =
      TableDecl<Tok>("Tok")
          .orderby_lit("T")
          .orderby_seq("gen", &Tok::gen)
          .hash([](const Tok& t) { return hash_fields(t.key, t.gen); });
  switch (store) {
    case StoreKind::Default: break;
    case StoreKind::FlatOrdered: decl.flat_store(); break;
    case StoreKind::FlatHash: decl.flat_hash_store(); break;
    case StoreKind::Columnar: decl.columns(&Tok::key, &Tok::gen); break;
  }
  return decl;
}

/// Attaches the program's derivation rules to `toks` (p.rules copies, so
/// the fixpoint is unchanged but task_per_rule has real work to split).
/// `put` performs one local put (local engine or sender routing).
inline void add_rules(Engine& eng, Table<Tok>& toks, const Program& p,
                      std::function<void(RuleCtx&, const Tok&)> put) {
  for (int r = 0; r < p.rules; ++r) {
    eng.rule(toks, r == 0 ? "derive" : "derive" + std::to_string(r + 1),
             [&p, put, r](RuleCtx& ctx, const Tok& t) {
               if (r == 0 && p.rule_cost.count() > 0) {
                 using Clock = std::chrono::steady_clock;
                 const Clock::time_point end = Clock::now() + p.rule_cost;
                 while (Clock::now() < end) {
                 }
               }
               if (t.gen + 1 > p.max_gen) return;
               for (const std::int64_t k2 :
                    p.adj[static_cast<std::size_t>(t.key)]) {
                 put(ctx, Tok{k2, t.gen + 1});
               }
             });
  }
}

// --- reference evaluators ---------------------------------------------------

/// Reference 1: a single Engine under `opts`, rules put locally (gen
/// increases, so local puts respect the law of causality).  The observed
/// set is collected through the table's effect — not a Gamma scan — so it
/// works identically for -noGamma (NullStore) configurations, where the
/// effect fires for every delivery and the set dedups.  `report`
/// (optional) receives the run's report.
inline std::set<Tok> single_engine_fixpoint(const Program& p,
                                            const EngineOptions& opts,
                                            StoreKind store =
                                                StoreKind::Default,
                                            RunReport* report = nullptr) {
  std::set<Tok> observed;
  std::mutex mu;
  Engine eng(opts);
  auto& toks =
      eng.table(tok_decl(store).effect([&observed, &mu](const Tok& t) {
        std::lock_guard<std::mutex> lk(mu);
        observed.insert(t);
      }));
  add_rules(eng, toks, p, [&toks](RuleCtx& ctx, const Tok& t) {
    toks.put(ctx, t);
  });
  for (const Tok& s : p.seeds) eng.put(toks, s);
  const RunReport r = eng.run();
  if (report != nullptr) *report = r;
  return observed;
}

/// A parallel run of an expensive-rule program shares a fire phase with
/// the pool whenever some batch held more than one tuple.
inline void expect_phases_split(const Program& p, const RunReport& r,
                                const std::string& where) {
  if (r.max_batch < 2) return;
  EXPECT_LT(r.inline_batches, r.batches)
      << "no fire phase split with " << p.rule_cost.count()
      << " us rule bodies, " << where;
}

/// The default reference: one sequential Engine.
inline std::set<Tok> single_engine_fixpoint(const Program& p) {
  EngineOptions opts;
  opts.sequential = true;
  return single_engine_fixpoint(p, opts);
}

/// References 2 and 3: the sharded engine under either schedule.  Every
/// derived tuple is routed through the mailbox to the hash owner of its
/// key, so fan-out traffic crosses shard boundaries constantly.  Also
/// checks ownership: a tuple may only materialise on the shard its key
/// hashes to.  `fabric` (optional) overrides the async fabric tuning —
/// batch threshold, drain floor, mailbox capacity — so knob sweeps can
/// force the flush / top-up / throttle paths on tiny programs; its mode
/// field is overwritten by `mode`.
inline std::set<Tok> sharded_fixpoint(const Program& p, int shards,
                                      dist::ShardedMode mode,
                                      bool sequential_engines,
                                      dist::ShardedRunReport* report_out =
                                          nullptr,
                                      StoreKind store = StoreKind::Default,
                                      const dist::ShardedOptions* fabric =
                                          nullptr) {
  EngineOptions opts;
  opts.sequential = sequential_engines;
  opts.threads = 2;
  dist::ShardedOptions sopts;
  if (fabric != nullptr) sopts = *fabric;
  sopts.mode = mode;

  std::vector<Table<Tok>*> tables(static_cast<std::size_t>(shards));
  dist::ShardedEngine<Tok> cluster(
      shards, opts, sopts,
      [&p, &tables, shards, store](int shard, Engine& eng,
                                   dist::Sender<Tok>& sender) {
        auto& toks = eng.table(tok_decl(store));
        tables[static_cast<std::size_t>(shard)] = &toks;
        add_rules(eng, toks, p, [&sender, shards](RuleCtx&, const Tok& t) {
          sender.send(dist::partition_of(t.key, shards), t);
        });
        return [&toks, &eng](const Tok& t) { eng.put(toks, t); };
      });

  for (const Tok& s : p.seeds) {
    cluster.seed(dist::partition_of(s.key, shards), s);
  }
  const dist::ShardedRunReport report = cluster.run();
  if (report_out != nullptr) *report_out = report;

  std::set<Tok> out;
  for (int s = 0; s < shards; ++s) {
    tables[static_cast<std::size_t>(s)]->scan([&](const Tok& t) {
      EXPECT_EQ(dist::partition_of(t.key, shards), s)
          << "tuple (" << t.key << "," << t.gen << ") on a non-owner shard";
      out.insert(t);
    });
  }
  return out;
}

// --- counted (multiset) schedules: retract- and upsert-heavy waves ---------
//
// A signed schedule drives a counted() table: waves of signed seed
// operations (insert +1, retract -1, upsert) separated by run()-to-
// quiescence points, so later waves land on a live incremental database.
// The fixpoint of a signed schedule is fully determined by the *net* seed
// count of every tuple — insert/retract commute per tuple — which gives a
// closed-form stratified oracle and makes the sweep mode-independent:
// sequential, BSP and async sharding must all land on it tuple-for-tuple.

/// One signed seed operation.  `sign` is +1 (insert), -1 (retract) or
/// kUpsertOp (keyed overwrite; only used by the upsert-heavy schedules).
inline constexpr std::int32_t kUpsertOp =
    std::numeric_limits<std::int32_t>::min();
struct SignedOp {
  Tok t;
  std::int32_t sign = 1;
};
using Wave = std::vector<SignedOp>;

struct CountedCase {
  Program p;          // derivation graph; p.seeds stays empty (waves drive)
  std::vector<Wave> waves;
};

/// A delete-heavy schedule: an insert wave followed by waves mixing
/// retractions of live tuples (the common case), duplicate inserts
/// (multiplicity > 1), retractions of tuples never inserted (debts), and
/// direct retractions of *derived* tuples — every signed path the counted
/// layer has.
inline CountedCase make_delete_heavy_case(std::uint64_t seed) {
  CountedCase c;
  c.p = random_program_shaped(seed * 0x9e3779b9ULL + 17, /*max_fanout=*/3,
                              /*gen_cap=*/6, /*rules=*/1);
  c.p.seeds.clear();  // the waves are the only seed source
  SplitMix64 rng(seed ^ 0xd1b54a32d192ed03ULL);
  auto random_key = [&] {
    return static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(c.p.keys)));
  };
  std::vector<Tok> pool;  // tuples some earlier wave inserted
  const std::uint64_t nwaves = 2 + rng.next_below(3);  // 2..4
  for (std::uint64_t w = 0; w < nwaves; ++w) {
    Wave wave;
    const std::uint64_t nops = 2 + rng.next_below(7);  // 2..8
    for (std::uint64_t i = 0; i < nops; ++i) {
      const std::uint64_t dice = rng.next_below(10);
      if (w == 0 || pool.empty() || dice < 3) {
        const Tok t{random_key(), 0};
        wave.push_back({t, 1});
        pool.push_back(t);
      } else if (dice < 7) {
        // Retract something a previous wave inserted (may already be
        // retracted — then it digs a debt, which is also on-contract).
        wave.push_back({pool[rng.next_below(pool.size())], -1});
      } else if (dice < 8) {
        // Duplicate insert: multiplicity 2 shields one retraction.
        wave.push_back({pool[rng.next_below(pool.size())], 1});
      } else if (dice < 9) {
        // Debt: retract a gen-0 tuple that may never have been inserted.
        wave.push_back({Tok{random_key(), 0}, -1});
      } else {
        // Direct retraction of a derived tuple: cancels one derivation
        // path (or digs a debt if the tuple is underivable).
        const std::int64_t g = 1 + static_cast<std::int64_t>(rng.next_below(
                                       static_cast<std::uint64_t>(
                                           c.p.max_gen)));
        wave.push_back({Tok{random_key(), g}, -1});
      }
    }
    c.waves.push_back(std::move(wave));
  }
  return c;
}

/// Stratified net-count oracle for signed (+1/-1) schedules with rules=1:
/// a tuple (k, g) is present iff its net seed count plus one derivation
/// per out-edge instance from every present (k', g-1) parent is >= 1.
/// Generations strictly increase, so presence is computed stratum by
/// stratum — no fixpoint iteration needed.
inline std::set<Tok> counted_oracle(const CountedCase& c) {
  std::map<Tok, std::int64_t> net;
  for (const Wave& w : c.waves) {
    for (const SignedOp& op : w) net[op.t] += op.sign;
  }
  std::set<Tok> result;
  std::vector<char> prev(static_cast<std::size_t>(c.p.keys), 0);
  for (std::int64_t g = 0; g <= c.p.max_gen; ++g) {
    std::vector<std::int64_t> derived(static_cast<std::size_t>(c.p.keys), 0);
    if (g > 0) {
      for (std::int64_t k = 0; k < c.p.keys; ++k) {
        if (prev[static_cast<std::size_t>(k)] == 0) continue;
        for (const std::int64_t k2 : c.p.adj[static_cast<std::size_t>(k)]) {
          ++derived[static_cast<std::size_t>(k2)];
        }
      }
    }
    std::vector<char> cur(static_cast<std::size_t>(c.p.keys), 0);
    for (std::int64_t k = 0; k < c.p.keys; ++k) {
      std::int64_t count = derived[static_cast<std::size_t>(k)];
      const auto it = net.find(Tok{k, g});
      if (it != net.end()) count += it->second;
      if (count >= 1) {
        cur[static_cast<std::size_t>(k)] = 1;
        result.insert(Tok{k, g});
      }
    }
    prev = std::move(cur);
  }
  return result;
}

/// Applies one signed op through the Engine front door.
inline void apply_op(Engine& eng, Table<Tok>& toks, const SignedOp& op) {
  if (op.sign == kUpsertOp) {
    eng.upsert(toks, op.t);
  } else if (op.sign < 0) {
    eng.retract(toks, op.t);
  } else {
    eng.put(toks, op.t);
  }
}

/// Counted reference 1: one Engine, waves applied with a run() between
/// each (later waves differentiate a live database).  The observed set is
/// the final Gamma scan — presence, not transition history.
inline std::set<Tok> counted_single_fixpoint(const CountedCase& c,
                                             const EngineOptions& opts,
                                             StoreKind store =
                                                 StoreKind::Default,
                                             std::int64_t retain = 0,
                                             bool epoch_per_wave = false) {
  Engine eng(opts);
  TableDecl<Tok> decl = tok_decl(store).counted();
  if (retain > 0) decl.retain(retain);
  auto& toks = eng.table(decl);
  add_rules(eng, toks, c.p, [&toks](RuleCtx& ctx, const Tok& t) {
    toks.put(ctx, t);
  });
  for (const Wave& w : c.waves) {
    if (epoch_per_wave) eng.begin_epoch();
    for (const SignedOp& op : w) apply_op(eng, toks, op);
    eng.run();
  }
  std::set<Tok> out;
  toks.scan([&out](const Tok& t) { out.insert(t); });
  return out;
}

/// Counted references 2 and 3: the sharded engine under either schedule.
/// ALL rule traffic rides the signed mailbox lane (send_signed with the
/// cascade's sign) so exact multiplicities cross shard boundaries; the
/// unsigned set-semantics lane would collapse counts.
inline std::set<Tok> counted_sharded_fixpoint(const CountedCase& c,
                                              int shards,
                                              dist::ShardedMode mode,
                                              bool sequential_engines,
                                              StoreKind store =
                                                  StoreKind::Default,
                                              std::int64_t retain = 0,
                                              bool epoch_per_wave = false,
                                              bool with_pk = false) {
  EngineOptions opts;
  opts.sequential = sequential_engines;
  opts.threads = 2;
  dist::ShardedOptions sopts;
  sopts.mode = mode;

  std::vector<Table<Tok>*> tables(static_cast<std::size_t>(shards));
  dist::ShardedEngine<Tok> cluster(
      shards, opts, sopts,
      typename dist::ShardedEngine<Tok>::SetupHooks(
          [&c, &tables, shards, store, retain, with_pk](
              int shard, Engine& eng, dist::Sender<Tok>& sender) {
            TableDecl<Tok> decl = tok_decl(store).counted();
            if (retain > 0) decl.retain(retain);
            if (with_pk) decl.primary_key(&Tok::key);
            auto& toks = eng.table(decl);
            tables[static_cast<std::size_t>(shard)] = &toks;
            add_rules(eng, toks, c.p,
                      [&sender, shards](RuleCtx& ctx, const Tok& t) {
                        sender.send_signed(
                            dist::partition_of(t.key, shards), t, ctx.sign());
                      });
            typename dist::ShardedEngine<Tok>::ShardHooks hooks;
            hooks.deliver = [&toks, &eng](const Tok& t) { eng.put(toks, t); };
            hooks.deliver_signed = [&toks, &eng](const Tok& t,
                                                 std::int32_t sign) {
              eng.prepare();
              toks.seed_signed(t, sign);
            };
            return hooks;
          }));

  for (const Wave& w : c.waves) {
    if (epoch_per_wave) cluster.begin_epoch();
    for (const SignedOp& op : w) {
      cluster.seed_signed(dist::partition_of(op.t.key, shards), op.t,
                          op.sign);
    }
    cluster.run();
  }

  std::set<Tok> out;
  for (int s = 0; s < shards; ++s) {
    tables[static_cast<std::size_t>(s)]->scan([&](const Tok& t) {
      EXPECT_EQ(dist::partition_of(t.key, shards), s)
          << "tuple (" << t.key << "," << t.gen << ") on a non-owner shard";
      out.insert(t);
    });
  }
  return out;
}

/// An upsert-heavy schedule over a keyed table (pk = Tok::key, value =
/// Tok::gen): waves of keyed overwrites, retractions of the current row,
/// duplicate inserts and debts — at most one op per key per wave, because
/// two ops racing to the same key in one quiescence interval have no
/// defined winner across schedules.  No derivation rules: a pk table
/// holds one row per key, which a fan-out rule would violate.
inline CountedCase make_upsert_heavy_case(std::uint64_t seed) {
  CountedCase c;
  SplitMix64 rng(seed ^ 0x94d049bb133111ebULL);
  c.p.keys = 4 + static_cast<std::int64_t>(rng.next_below(9));  // 4..12
  c.p.max_gen = 0;
  c.p.adj.resize(static_cast<std::size_t>(c.p.keys));
  c.p.rules = 0;
  // Track the value each key currently holds (-1 = absent) so retraction
  // ops name real rows and multiplicity ops duplicate the live row.
  std::vector<std::int64_t> val(static_cast<std::size_t>(c.p.keys), -1);
  const std::uint64_t nwaves = 3 + rng.next_below(4);  // 3..6
  for (std::uint64_t w = 0; w < nwaves; ++w) {
    Wave wave;
    for (std::int64_t k = 0; k < c.p.keys; ++k) {
      if (rng.next_below(3) == 0) continue;  // key skips this wave
      auto& cur = val[static_cast<std::size_t>(k)];
      const std::uint64_t dice = rng.next_below(10);
      if (cur < 0 || dice < 6) {
        // Keyed overwrite (or first write) to a fresh value.
        const std::int64_t v =
            static_cast<std::int64_t>(rng.next_below(10));
        wave.push_back({Tok{k, v}, kUpsertOp});
        cur = v;
      } else if (dice < 8) {
        wave.push_back({Tok{k, cur}, -1});  // retract the current row
        cur = -1;
      } else if (dice < 9) {
        wave.push_back({Tok{k, cur}, 1});   // duplicate: multiplicity 2
      } else {
        // Debt on a value the key does not hold.
        wave.push_back({Tok{k, cur + 100}, -1});
      }
    }
    c.waves.push_back(std::move(wave));
  }
  return c;
}

/// Upsert reference: one Engine with pk = Tok::key.  Used both as the
/// sequential cross-mode reference and as the parallel subject.
inline std::set<Tok> upsert_single_fixpoint(const CountedCase& c,
                                            const EngineOptions& opts,
                                            StoreKind store =
                                                StoreKind::Default) {
  Engine eng(opts);
  auto& toks = eng.table(tok_decl(store).counted().primary_key(&Tok::key));
  for (const Wave& w : c.waves) {
    for (const SignedOp& op : w) apply_op(eng, toks, op);
    eng.run();
  }
  std::set<Tok> out;
  toks.scan([&out](const Tok& t) { out.insert(t); });
  return out;
}

}  // namespace jstar::difftest
