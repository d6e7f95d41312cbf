// Property-based tests: randomized inputs checked against brute-force
// oracles or reference implementations.
//
//   * Fourier–Motzkin soundness vs a grid oracle (rational and integer),
//   * SkipListMap vs std::map under random operation sequences,
//   * Delta-tree pop order and batch merging under random keys,
//   * rule-exception propagation (failure injection),
//   * random rule programs: parallel output == sequential output.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "concurrent/skip_list_map.h"
#include "core/delta_tree.h"
#include "core/engine.h"
#include "smt/fourier_motzkin.h"

namespace jstar {
namespace {

// ---------------------------------------------------------------------------
// Fourier–Motzkin vs grid oracle
// ---------------------------------------------------------------------------

using smt::Constraint;
using smt::FourierMotzkin;
using smt::LinExpr;
using smt::Rat;
using smt::SatResult;
using smt::VarId;
using smt::VarPool;

struct RandomSystem {
  VarPool pool;
  std::vector<VarId> vars;
  std::vector<Constraint> constraints;
};

RandomSystem random_system(std::mt19937_64& rng, int num_vars,
                           int num_constraints) {
  RandomSystem sys;
  for (int v = 0; v < num_vars; ++v) {
    sys.vars.push_back(sys.pool.fresh("x" + std::to_string(v)));
  }
  std::uniform_int_distribution<int> coeff(-3, 3);
  std::uniform_int_distribution<int> rhs(-5, 5);
  std::uniform_int_distribution<int> strict(0, 1);
  for (int c = 0; c < num_constraints; ++c) {
    LinExpr e(rhs(rng));
    for (const VarId v : sys.vars) {
      e = e + LinExpr::var(v, Rat(coeff(rng)));
    }
    sys.constraints.push_back(Constraint{e, strict(rng) == 1});
  }
  return sys;
}

bool satisfied(const std::vector<Constraint>& cs,
               const std::map<VarId, Rat>& assignment) {
  for (const Constraint& c : cs) {
    const Rat v = c.expr.eval(assignment);
    if (c.strict ? !(v < Rat(0)) : v.is_positive()) return false;
  }
  return true;
}

TEST(FMProperty, UnsatMeansNoGridPointSatisfies) {
  std::mt19937_64 rng(11);
  int unsat_seen = 0;
  for (int trial = 0; trial < 200; ++trial) {
    RandomSystem sys = random_system(rng, 2, 4);
    FourierMotzkin fm;
    const auto out = fm.check(sys.constraints);
    if (out.result == SatResult::Sat) {
      // The extracted model must satisfy every constraint.
      EXPECT_TRUE(satisfied(sys.constraints, out.model)) << "trial " << trial;
      continue;
    }
    if (out.result != SatResult::Unsat) continue;
    ++unsat_seen;
    // Soundness: no point of a (rational) grid may satisfy the system.
    for (int a = -12; a <= 12; ++a) {
      for (int b = -12; b <= 12; ++b) {
        const std::map<VarId, Rat> pt{{sys.vars[0], Rat(a, 2)},
                                      {sys.vars[1], Rat(b, 2)}};
        ASSERT_FALSE(satisfied(sys.constraints, pt))
            << "trial " << trial << " at (" << a << "/2, " << b << "/2)";
      }
    }
  }
  EXPECT_GT(unsat_seen, 5);  // the distribution must actually produce both
}

TEST(FMProperty, IntegerCheckMatchesBoxedBruteForce) {
  std::mt19937_64 rng(23);
  constexpr int kBox = 4;
  int disagreements = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RandomSystem sys = random_system(rng, 2, 3);
    // Close the box so brute force and branch-and-bound see the same
    // bounded domain.
    for (const VarId v : sys.vars) {
      sys.constraints.push_back(smt::ge(LinExpr::var(v), LinExpr(-kBox)));
      sys.constraints.push_back(smt::le(LinExpr::var(v), LinExpr(kBox)));
    }
    bool brute_sat = false;
    for (int a = -kBox; a <= kBox && !brute_sat; ++a) {
      for (int b = -kBox; b <= kBox && !brute_sat; ++b) {
        brute_sat = satisfied(sys.constraints,
                              {{sys.vars[0], Rat(a)}, {sys.vars[1], Rat(b)}});
      }
    }
    FourierMotzkin fm;
    const auto out = fm.check_integer(sys.constraints);
    if (out.result == SatResult::Unknown) continue;  // allowed, rare
    const bool fm_sat = out.result == SatResult::Sat;
    if (fm_sat != brute_sat) ++disagreements;
    EXPECT_EQ(fm_sat, brute_sat) << "trial " << trial;
    if (fm_sat) {
      EXPECT_TRUE(satisfied(sys.constraints, out.model));
      for (const auto& [v, r] : out.model) {
        (void)v;
        EXPECT_TRUE(r.is_integer());
      }
    }
  }
  EXPECT_EQ(disagreements, 0);
}

// ---------------------------------------------------------------------------
// SkipListMap vs std::map under random operation sequences
// ---------------------------------------------------------------------------

TEST(SkipListProperty, RandomOpsMatchStdMap) {
  std::mt19937_64 rng(31);
  concurrent::SkipListMap<std::int64_t, std::int64_t> sl;
  std::map<std::int64_t, std::int64_t> ref;
  std::uniform_int_distribution<int> op(0, 9);
  std::uniform_int_distribution<std::int64_t> key(0, 63);
  for (int step = 0; step < 20000; ++step) {
    const std::int64_t k = key(rng);
    switch (op(rng)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // insert
        const bool inserted = sl.insert(k, step);
        const bool ref_inserted = ref.emplace(k, step).second;
        ASSERT_EQ(inserted, ref_inserted) << "step " << step;
        break;
      }
      case 4:
      case 5: {  // erase
        ASSERT_EQ(sl.erase(k), ref.erase(k) > 0) << "step " << step;
        break;
      }
      case 6:
      case 7: {  // contains
        ASSERT_EQ(sl.contains(k), ref.count(k) > 0) << "step " << step;
        break;
      }
      case 8: {  // pop_min
        std::int64_t mk = 0, mv = 0;
        const bool got = sl.pop_min(mk, mv);
        ASSERT_EQ(got, !ref.empty()) << "step " << step;
        if (got) {
          ASSERT_EQ(mk, ref.begin()->first);
          ASSERT_EQ(mv, ref.begin()->second);
          ref.erase(ref.begin());
        }
        break;
      }
      case 9: {  // size
        ASSERT_EQ(sl.size(), ref.size()) << "step " << step;
        break;
      }
    }
  }
  // Final traversal equivalence.
  std::vector<std::pair<std::int64_t, std::int64_t>> got;
  sl.for_each([&](const std::int64_t& k, const std::int64_t& v) {
    got.emplace_back(k, v);
  });
  std::vector<std::pair<std::int64_t, std::int64_t>> expect(ref.begin(),
                                                            ref.end());
  EXPECT_EQ(got, expect);
}

// ---------------------------------------------------------------------------
// Delta-tree pop order under random keys
// ---------------------------------------------------------------------------

DeltaKey make_key(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> len(1, 4);
  std::uniform_int_distribution<std::int64_t> field(-3, 3);
  DeltaKey k;
  const int n = len(rng);
  for (int i = 0; i < n; ++i) k.push_back(field(rng));
  return k;
}

TEST(DeltaTreeProperty, PopMinDrainsInStrictKeyOrder) {
  std::mt19937_64 rng(41);
  DeltaTree tree;
  std::set<DeltaKey, DeltaKeyLess> expect;
  for (int i = 0; i < 3000; ++i) {
    const DeltaKey k = make_key(rng);
    tree.get_or_insert(k);
    expect.insert(k);
  }
  EXPECT_EQ(tree.batch_count(), expect.size());
  DeltaKey prev;
  bool first = true;
  std::size_t drained = 0;
  DeltaKey key;
  std::unique_ptr<BatchNode> node;
  while (tree.pop_min(key, node)) {
    if (!first) {
      EXPECT_TRUE((prev <=> key) == std::strong_ordering::less)
          << to_string(prev) << " !< " << to_string(key);
    }
    prev = key;
    first = false;
    ++drained;
    EXPECT_TRUE(expect.count(key)) << to_string(key);
  }
  EXPECT_EQ(drained, expect.size());
  EXPECT_TRUE(tree.empty());
}

// ---------------------------------------------------------------------------
// Failure injection: exceptions from rule bodies
// ---------------------------------------------------------------------------

struct Item {
  std::int64_t id;
  auto operator<=>(const Item&) const = default;
};

TableDecl<Item> item_decl() {
  return TableDecl<Item>("Item")
      .orderby_lit("T")
      .orderby_seq("id", &Item::id)
      .hash([](const Item& i) { return hash_fields(i.id); });
}

TEST(FailureInjection, RuleExceptionPropagatesSequential) {
  Engine eng(EngineOptions{.sequential = true});
  auto& items = eng.table(item_decl());
  eng.rule(items, "boom", [&](RuleCtx&, const Item& i) {
    if (i.id == 3) throw std::runtime_error("rule failure");
  });
  for (int i = 0; i < 6; ++i) eng.put(items, Item{i});
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(FailureInjection, RuleExceptionPropagatesParallel) {
  EngineOptions opts;
  opts.threads = 4;
  Engine eng(opts);
  auto& items = eng.table(TableDecl<Item>("Item")
                              .orderby_lit("T")
                              .orderby_par("id")  // one wide batch
                              .orderby_seq("one", [](const Item&) {
                                return std::int64_t{1};
                              })
                              .hash([](const Item& i) {
                                return hash_fields(i.id);
                              }));
  eng.rule(items, "boom", [&](RuleCtx&, const Item& i) {
    if (i.id % 7 == 3) throw std::runtime_error("rule failure");
  });
  for (int i = 0; i < 50; ++i) eng.put(items, Item{i});
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(FailureInjection, EngineRejectsZeroThreads) {
  EngineOptions opts;
  opts.threads = 0;
  EXPECT_THROW(Engine{opts}, std::logic_error);
}

// ---------------------------------------------------------------------------
// Random rule programs: strategy independence (§1.3) on generated DAGs
// ---------------------------------------------------------------------------

struct Datum {
  std::int64_t stage, value;
  auto operator<=>(const Datum&) const = default;
};

/// Builds a random 4-stage pipeline where each stage applies a randomly
/// chosen arithmetic map and runs it; returns the sorted final database.
std::vector<Datum> run_random_pipeline(std::uint64_t seed, bool sequential,
                                       int threads) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> mul(1, 5);
  std::uniform_int_distribution<std::int64_t> add(-7, 7);
  std::uniform_int_distribution<std::int64_t> mod(11, 31);
  struct StageFn {
    std::int64_t m, a, q;
  };
  std::vector<StageFn> fns;
  for (int s = 0; s < 4; ++s) fns.push_back({mul(rng), add(rng), mod(rng)});

  EngineOptions opts;
  opts.sequential = sequential;
  opts.threads = threads;
  Engine eng(opts);
  auto& data = eng.table(TableDecl<Datum>("Datum")
                             .orderby_lit("D")
                             .orderby_seq("stage", &Datum::stage)
                             .orderby_par("value")
                             .hash([](const Datum& d) {
                               return hash_fields(d.stage, d.value);
                             }));
  eng.rule(data, "advance", [&, fns](RuleCtx& ctx, const Datum& d) {
    if (d.stage >= static_cast<std::int64_t>(fns.size())) return;
    const StageFn& f = fns[static_cast<std::size_t>(d.stage)];
    // Two derivations per tuple: heavy collisions via the modulus.
    data.put(ctx, Datum{d.stage + 1, (d.value * f.m + f.a) % f.q});
    data.put(ctx, Datum{d.stage + 1, (d.value + f.a) % f.q});
  });
  for (std::int64_t v = 0; v < 40; ++v) eng.put(data, Datum{0, v});
  eng.run();
  std::vector<Datum> out;
  data.scan([&](const Datum& d) { out.push_back(d); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RandomProgramProperty, ParallelMatchesSequentialAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto reference = run_random_pipeline(seed, true, 1);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(run_random_pipeline(seed, false, 2), reference)
        << "seed " << seed;
    EXPECT_EQ(run_random_pipeline(seed, false, 4), reference)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace jstar
