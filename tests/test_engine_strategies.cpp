// The paper's central determinism claim (§1.3): "the output of the program
// is independent of the parallelism strategy that is used."  One recursive,
// heavily-deduplicating program is run under every strategy combination —
// sequential / parallel x thread counts x -noDelta — and must produce a
// bit-identical output database.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/engine.h"

namespace jstar {
namespace {

/// A branching frontier: each Step(d, x) spawns two Steps at depth d+1
/// whose values collide often (mod arithmetic), exercising both Delta and
/// Gamma dedup, plus an aggregate over a strictly earlier stratum.
struct Step {
  std::int64_t depth, x;
  auto operator<=>(const Step&) const = default;
};
struct Summary {
  std::int64_t token;
  auto operator<=>(const Summary&) const = default;
};

struct Strategy {
  bool sequential;
  int threads;
  bool no_delta_step;
  std::string label;
  bool task_per_rule = false;  // §5.2 one task per (tuple, rule)
};

std::ostream& operator<<(std::ostream& os, const Strategy& s) {
  return os << s.label;
}

struct ProgramOutput {
  std::vector<Step> steps;          // sorted final database
  std::int64_t summary_count = -1;  // aggregate result
};

ProgramOutput run_program(const Strategy& strat) {
  constexpr std::int64_t kDepth = 12;
  constexpr std::int64_t kMod = 257;

  EngineOptions opts;
  opts.sequential = strat.sequential;
  opts.threads = strat.threads;
  opts.task_per_rule = strat.task_per_rule;
  if (strat.no_delta_step) opts.no_delta.insert("Step");
  Engine eng(opts);

  auto& step = eng.table(TableDecl<Step>("Step")
                             .orderby_lit("T")
                             .orderby_seq("depth", &Step::depth)
                             .orderby_par("x")
                             .hash([](const Step& s) {
                               return hash_fields(s.depth, s.x);
                             }));
  auto& summary = eng.table(TableDecl<Summary>("Summary")
                                .orderby_lit("Z")
                                .hash([](const Summary& s) {
                                  return hash_fields(s.token);
                                }));
  eng.order({"T", "Z"});

  eng.rule(step, "branch", [&](RuleCtx& ctx, const Step& s) {
    if (s.depth < kDepth) {
      step.put(ctx, Step{s.depth + 1, (s.x * 2 + 1) % kMod});
      step.put(ctx, Step{s.depth + 1, (s.x * 3 + 7) % kMod});
    } else {
      summary.put(ctx, Summary{0});
    }
  });

  ProgramOutput out;
  std::mutex mu;
  eng.rule(summary, "aggregate", [&](RuleCtx&, const Summary&) {
    // Aggregate query over the strictly earlier Step stratum (§4).
    const std::int64_t n = step.count_if([](const Step&) { return true; });
    std::lock_guard<std::mutex> lk(mu);
    out.summary_count = n;
  });

  for (std::int64_t x = 0; x < 4; ++x) eng.put(step, Step{0, x * 50});
  eng.run();

  step.scan([&](const Step& s) { out.steps.push_back(s); });
  std::sort(out.steps.begin(), out.steps.end());
  return out;
}

class DeterminismTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(DeterminismTest, OutputIndependentOfStrategy) {
  static const ProgramOutput reference =
      run_program({true, 1, false, "reference"});
  ASSERT_FALSE(reference.steps.empty());
  ASSERT_GT(reference.summary_count, 0);

  const ProgramOutput got = run_program(GetParam());
  EXPECT_EQ(got.steps, reference.steps);
  EXPECT_EQ(got.summary_count, reference.summary_count);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, DeterminismTest,
    ::testing::Values(
        Strategy{true, 1, false, "sequential"},
        Strategy{true, 1, true, "sequential_noDelta"},
        Strategy{false, 1, false, "parallel1"},
        Strategy{false, 2, false, "parallel2"},
        Strategy{false, 4, false, "parallel4"},
        Strategy{false, 8, false, "parallel8"},
        Strategy{false, 4, true, "parallel4_noDelta"},
        Strategy{false, 2, false, "parallel2_taskPerRule", true},
        Strategy{false, 4, false, "parallel4_taskPerRule", true}),
    [](const auto& info) { return info.param.label; });

// §5.2: with task_per_rule every rule of a multi-rule table fires in its
// own task; firing counts and effects-per-tuple must be unchanged.
TEST(TaskPerRule, FiresEveryRuleOncePerTupleWithSingleEffect) {
  struct Item {
    std::int64_t id;
    auto operator<=>(const Item&) const = default;
  };
  for (const bool per_rule : {false, true}) {
    EngineOptions opts;
    opts.sequential = false;
    opts.threads = 4;
    opts.task_per_rule = per_rule;
    Engine eng(opts);
    std::atomic<int> effects{0};
    std::atomic<int> rule_a{0};
    std::atomic<int> rule_b{0};
    std::atomic<int> rule_c{0};
    auto& item = eng.table(
        TableDecl<Item>("Item")
            .orderby_lit("T")
            .orderby_seq("id", &Item::id)
            .hash([](const Item& i) { return hash_fields(i.id); })
            .effect([&](const Item&) { effects.fetch_add(1); }));
    eng.rule(item, "a", [&](RuleCtx&, const Item&) { rule_a.fetch_add(1); });
    eng.rule(item, "b", [&](RuleCtx&, const Item&) { rule_b.fetch_add(1); });
    eng.rule(item, "c", [&](RuleCtx&, const Item&) { rule_c.fetch_add(1); });
    constexpr int kN = 200;
    for (int i = 0; i < kN; ++i) eng.put(item, Item{i});
    eng.run();
    EXPECT_EQ(effects.load(), kN) << "task_per_rule=" << per_rule;
    EXPECT_EQ(rule_a.load(), kN) << "task_per_rule=" << per_rule;
    EXPECT_EQ(rule_b.load(), kN) << "task_per_rule=" << per_rule;
    EXPECT_EQ(rule_c.load(), kN) << "task_per_rule=" << per_rule;
    EXPECT_EQ(item.stats().fires.load(), 3 * kN);
  }
}

// stats.fires counts rule *invocations* — one per (tuple, rule) pair —
// identically under every firing strategy: the per-tuple path (which runs
// all rules of a tuple in one task), task_per_rule (one task per rule),
// and the inline small-batch fast path all bump it the same way.  This
// pins the unified accounting so a strategy change can never be mistaken
// for a workload change in run logs.
TEST(FiresAccounting, InvocationCountIndependentOfStrategy) {
  struct Item {
    std::int64_t id;
    auto operator<=>(const Item&) const = default;
  };
  // A literal-only orderby puts all kN tuples in ONE batch, so the fire
  // phase's work (kN x kRules) is far above the inline cutoff and the
  // parallel strategies genuinely split it across pool tasks.
  constexpr int kN = 300;
  constexpr int kRules = 3;
  std::int64_t reference = -1;
  for (const bool sequential : {true, false}) {
    for (const bool per_rule : {false, true}) {
      if (sequential && per_rule) continue;  // task_per_rule needs a pool
      EngineOptions opts;
      opts.sequential = sequential;
      opts.threads = 4;
      opts.task_per_rule = per_rule;
      Engine eng(opts);
      auto& item = eng.table(
          TableDecl<Item>("Item")
              .orderby_lit("T")
              .hash([](const Item& i) { return hash_fields(i.id); }));
      for (int r = 0; r < kRules; ++r) {
        eng.rule(item, "r" + std::to_string(r),
                 [](RuleCtx&, const Item&) {});
      }
      for (int i = 0; i < kN; ++i) eng.put(item, Item{i});
      eng.run();
      const std::int64_t fires = item.stats().fires.load();
      EXPECT_EQ(fires, static_cast<std::int64_t>(kN) * kRules)
          << "sequential=" << sequential << " task_per_rule=" << per_rule;
      if (reference < 0) reference = fires;
      EXPECT_EQ(fires, reference)
          << "sequential=" << sequential << " task_per_rule=" << per_rule;
    }
  }
}

// Rules of one tuple may put into the same downstream table from distinct
// tasks; set semantics must still hold under task_per_rule.
TEST(TaskPerRule, ConcurrentPutsFromSiblingRulesDedup) {
  struct Src {
    std::int64_t id;
    auto operator<=>(const Src&) const = default;
  };
  struct Dst {
    std::int64_t v;
    auto operator<=>(const Dst&) const = default;
  };
  EngineOptions opts;
  opts.sequential = false;
  opts.threads = 4;
  opts.task_per_rule = true;
  Engine eng(opts);
  auto& src = eng.table(TableDecl<Src>("Src")
                            .orderby_lit("T")
                            .orderby_seq("id", &Src::id)
                            .hash([](const Src& s) { return hash_fields(s.id); }));
  auto& dst = eng.table(TableDecl<Dst>("Dst")
                            .orderby_lit("U")
                            .hash([](const Dst& d) { return hash_fields(d.v); }));
  eng.order({"T", "U"});
  std::atomic<int> dst_fires{0};
  // Both rules derive the same Dst tuple for every Src tuple.
  eng.rule(src, "left", [&](RuleCtx& ctx, const Src& s) {
    dst.put(ctx, Dst{s.id % 7});
  });
  eng.rule(src, "right", [&](RuleCtx& ctx, const Src& s) {
    dst.put(ctx, Dst{s.id % 7});
  });
  eng.rule(dst, "count", [&](RuleCtx&, const Dst&) { dst_fires.fetch_add(1); });
  for (int i = 0; i < 100; ++i) eng.put(src, Src{i});
  eng.run();
  EXPECT_EQ(dst_fires.load(), 7);
  EXPECT_EQ(dst.gamma_size(), 7u);
}

// --- lazy-split batch phases (core/table.h lazy_split) ---------------------

void busy_wait(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

struct Item {
  std::int64_t id;
  auto operator<=>(const Item&) const = default;
};
struct Out {
  std::int64_t v;
  auto operator<=>(const Out&) const = default;
};

/// One batch of `n` Items (a literal-only orderby), each firing `rules`
/// rules that busy-wait `cost` and derive Out{id % 13}; a rule throws at
/// item `throw_at` (-1: never).  Returns the Out database; `item_inline`
/// receives the Item table's inline fire phases.
std::vector<Out> run_items(const EngineOptions& opts, int n, int rules,
                           std::chrono::microseconds cost,
                           std::int64_t* item_inline = nullptr,
                           std::int64_t throw_at = -1) {
  Engine eng(opts);
  auto& item = eng.table(TableDecl<Item>("Item").orderby_lit("T").hash(
      [](const Item& i) { return hash_fields(i.id); }));
  auto& out = eng.table(TableDecl<Out>("Out").orderby_lit("U").hash(
      [](const Out& o) { return hash_fields(o.v); }));
  eng.order({"T", "U"});
  for (int r = 0; r < rules; ++r) {
    eng.rule(item, "r" + std::to_string(r),
             [&out, cost, throw_at](RuleCtx& ctx, const Item& i) {
               busy_wait(cost);
               if (i.id == throw_at) throw std::runtime_error("rule threw");
               out.put(ctx, Out{i.id % 13});
             });
  }
  for (int i = 0; i < n; ++i) eng.put(item, Item{i});
  eng.run();
  if (item_inline != nullptr) *item_inline = item.stats().inline_batches.load();
  std::vector<Out> db;
  out.scan([&db](const Out& o) { db.push_back(o); });
  std::sort(db.begin(), db.end());
  return db;
}

// A 64-tuple batch of ~50 µs rule bodies outlasts the split budget within
// a few tuples, so its fire phase is shared with the pool (and not counted
// inline) under both firing granularities, and lands on the sequential
// fixpoint.
TEST(LazySplit, ExpensiveBatchSplitsAndMatchesSequential) {
  using std::chrono::microseconds;
  EngineOptions seq;
  seq.sequential = true;
  const std::vector<Out> want = run_items(seq, 64, 1, microseconds(50));
  ASSERT_EQ(want.size(), 13u);
  for (const bool per_rule : {false, true}) {
    EngineOptions par;
    par.threads = 4;
    par.task_per_rule = per_rule;
    std::int64_t item_inline = -1;
    const int rules = per_rule ? 2 : 1;
    EXPECT_EQ(run_items(par, 64, rules, microseconds(50 / rules), &item_inline),
              want)
        << "task_per_rule=" << per_rule;
    EXPECT_EQ(item_inline, 0) << "task_per_rule=" << per_rule;
  }
}

// A 4-tuple batch of cheap rules ends long before the budget and stays on
// the coordinator.  The split is decided by the clock, so a coordinator
// descheduled mid-phase may legitimately split; one inline run out of a
// few attempts is the contract.
TEST(LazySplit, CheapSmallBatchStaysInline) {
  EngineOptions par;
  par.threads = 4;
  bool stayed_inline = false;
  for (int attempt = 0; attempt < 5 && !stayed_inline; ++attempt) {
    std::int64_t item_inline = -1;
    run_items(par, 4, 1, std::chrono::microseconds(0), &item_inline);
    stayed_inline = item_inline == 1;
  }
  EXPECT_TRUE(stayed_inline);
}

// A rule that throws after its phase split (tuple 40 of 64; the phase is
// past the budget by tuple 5) surfaces from run() on the coordinator.
TEST(LazySplit, ExceptionAfterSplitSurfacesFromRun) {
  EngineOptions par;
  par.threads = 4;
  EXPECT_THROW(run_items(par, 64, 1, std::chrono::microseconds(50), nullptr,
                         /*throw_at=*/40),
               std::runtime_error);
}

// Repeat the parallel run several times: scheduling nondeterminism must
// never leak into the output database.
TEST(DeterminismRepeat, ParallelRunsAreStable) {
  const ProgramOutput reference = run_program({true, 1, false, "ref"});
  for (int i = 0; i < 5; ++i) {
    const ProgramOutput got = run_program({false, 4, false, "par4"});
    ASSERT_EQ(got.steps, reference.steps) << "iteration " << i;
    ASSERT_EQ(got.summary_count, reference.summary_count);
  }
}

}  // namespace
}  // namespace jstar
