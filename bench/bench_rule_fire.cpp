// Rule-firing benchmarks for batch-at-a-time emission (emit buffers +
// lazy-split batch phases, core/table.h): the engine-level cost of moving
// rule-derived tuples into the Delta tree, which §6.5 diagnoses as the
// scalability wall ("several million Estimate tuples through the Delta
// tree").  Two workloads, two acceptance bars:
//
//  * wide: a few wide strata (every tuple of a level shares one
//    causality class), each tuple deriving two next-level tuples that
//    collide heavily — the emit-heavy shape where the direct path pays a
//    Delta lookup + node lock + dedup probe per put while the buffered
//    path stages records thread-locally and bulk-appends once per fire
//    phase.  Bar (`fire_guard.wide`): buffered >= 1.3x direct at the
//    enforcement scale (>= 1e6 derived tuples).  Also reports buffered
//    wall time at 1/2/4/8 workers and each count's speedup over 1 worker
//    (recorded, not enforced).
//
//  * deep: a long chain of tiny batches (4 tuples per causality level) —
//    the dijkstra-like shape where a phase that dispatched to the pool
//    would pay a round trip (task enqueue + worker wake + join) per hop.
//    Bar (`fire_guard.deep`): the 2-worker parallel engine runs the chain
//    within 2.0x of the sequential engine.  Lazy splitting keeps these
//    phases on the coordinator (~1.7x, the concurrent substrate's cost);
//    dispatching every hop measured 13x the inline path, so the bar
//    catches any return of per-hop dispatch.
//
// The run also records the pool round trip a split phase pays (enqueue,
// worker wake-up, join) with hot workers and after 0.5 ms idle — the
// measurement behind the lazy-split budget, kPhaseSplitBudget.
//
// Usage: bench_rule_fire [rows] [reps]
//   rows  derived-tuple scale for the wide workload (default 1000000);
//         bars are enforced only at >= 1e6 (below that the run records
//         the ratios without failing, like the other bench guards)
//   reps  timed repetitions per measurement (default 3)
//
// Writes BENCH_rule_fire.json; exits non-zero when an enforced bar is
// missed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/engine.h"
#include "util/json.h"

namespace {

using namespace jstar;
using namespace jstar::bench;

struct Tok {
  std::int64_t level, g, i;
  auto operator<=>(const Tok&) const = default;
};

// --- wide emit-heavy workload ----------------------------------------------

constexpr std::int64_t kWideLevels = 8;
constexpr std::int64_t kWideGroups = 256;  // causality classes per stratum
constexpr std::int64_t kWideFanout = 8;    // puts per fired tuple

/// One fixpoint of the wide workload: W tuples per level spread over 256
/// causality classes (orderby seq g), each fired tuple deriving 8
/// colliding tuples into one next-level class.  With hundreds of keys in
/// flight the Delta tree probe is a real ordered-structure descent, so
/// the direct path pays (probe + node lock + dedup check) per put while
/// the buffered path groups the ~8x duplicate emission thread-locally
/// and resolves each touched key once per flush — the §6.5 "millions of
/// tuples through the Delta tree" shape.  Returns the run report so
/// callers can sanity-check the emit counters.
RunReport run_wide(std::int64_t width, const EngineOptions& opts,
                   std::size_t* gamma_out = nullptr) {
  Engine eng(opts);
  const std::int64_t perg = width / kWideGroups;  // ids per class
  auto& tok = eng.table(TableDecl<Tok>("Tok")
                            .orderby_lit("T")
                            .orderby_seq("level", &Tok::level)
                            .orderby_seq("g", &Tok::g)
                            .orderby_par("i")
                            .hash([](const Tok& t) {
                              return hash_fields(t.level, t.g, t.i);
                            }));
  eng.rule(tok, "derive", [&tok, perg](RuleCtx& ctx, const Tok& t) {
    if (t.level + 1 >= kWideLevels) return;
    const std::int64_t g2 = (t.g * 31 + 1) % kWideGroups;
    for (std::int64_t f = 0; f < kWideFanout; ++f) {
      tok.put(ctx,
              Tok{t.level + 1, g2, (t.i * 2654435761LL + f * 7 + 1) % perg});
    }
  });
  for (std::int64_t g = 0; g < kWideGroups; ++g) {
    for (std::int64_t i = 0; i < perg; ++i) eng.put(tok, Tok{0, g, i});
  }
  const RunReport r = eng.run();
  if (gamma_out != nullptr) *gamma_out = tok.gamma_size();
  return r;
}

// --- deep small-batch chain workload ---------------------------------------

constexpr std::int64_t kDeepWidth = 4;  // tuples per causality level

/// A chain of `levels` 4-tuple batches: each batch phase ends far inside
/// the lazy-split budget, so the parallel engine fires it on the
/// coordinator like the sequential engine does.
std::size_t run_deep(std::int64_t levels, const EngineOptions& opts) {
  Engine eng(opts);
  auto& tok = eng.table(TableDecl<Tok>("Tok")
                            .orderby_lit("T")
                            .orderby_seq("level", &Tok::level)
                            .orderby_par("i")
                            .hash([](const Tok& t) {
                              return hash_fields(t.level, t.i);
                            }));  // g unused: one causality class per level
  eng.rule(tok, "hop", [&tok, levels](RuleCtx& ctx, const Tok& t) {
    if (t.level + 1 < levels) tok.put(ctx, Tok{t.level + 1, 0, t.i});
  });
  for (std::int64_t i = 0; i < kDeepWidth; ++i) eng.put(tok, Tok{0, 0, i});
  (void)eng.run();
  return tok.gamma_size();
}

// --- the pool round trip behind the split budget --------------------------

/// Median microseconds of one for_each_index round trip in which a helper
/// runs an index (enqueue, wake a worker, claim, join), with `idle` of
/// pool idleness before each.
double round_trip_us(sched::ForkJoinPool& pool, std::chrono::microseconds idle,
                     int reps) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    std::this_thread::sleep_for(idle);
    std::atomic<bool> helper_ran{false};
    WallTimer timer;
    pool.for_each_index(
        2,
        [&](std::int64_t) {
          if (std::this_thread::get_id() != caller) {
            helper_ran.store(true);
            return;
          }
          while (!helper_ran.load()) {
          }
        },
        /*grain=*/1);
    us.push_back(timer.seconds() * 1e6);
  }
  std::nth_element(us.begin(), us.begin() + reps / 2, us.end());
  return us[static_cast<std::size_t>(reps / 2)];
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t rows = arg_or(argc, argv, 1, 1000000);
  const int reps = static_cast<int>(arg_or(argc, argv, 2, 3));
  // Width rounds to a whole number of ids per causality class.
  const std::int64_t width =
      std::max<std::int64_t>(rows / kWideLevels / kWideGroups, 1) *
      kWideGroups;
  const std::int64_t total = width * kWideLevels;

  constexpr double kWideBar = 1.3;
  constexpr double kDeepBar = 2.0;  // max parallel / sequential time
  constexpr std::int64_t kBarRows = 1000000;
  const bool enforced = rows >= kBarRows;

  // --- wide: buffered vs direct emission ------------------------------------
  print_header("wide emit-heavy firing at " + std::to_string(total) +
               " tuples (" + std::to_string(kWideLevels) + " strata x " +
               std::to_string(width) + ", " + std::to_string(kWideGroups) +
               " causality classes each, fanout " +
               std::to_string(kWideFanout) + ")");
  EngineOptions wide_opts;
  wide_opts.sequential = false;
  wide_opts.threads = 4;

  // Correctness pin before timing: both paths must land on the same
  // database, and the buffered run must actually route puts through
  // buffers (unless JSTAR_EMIT=off is forcing the direct path).
  std::size_t gamma_direct = 0, gamma_buffered = 0;
  EngineOptions direct_opts = wide_opts;
  direct_opts.emit_buffer = false;
  (void)run_wide(width, direct_opts, &gamma_direct);
  const RunReport pin = run_wide(width, wide_opts, &gamma_buffered);
  if (gamma_direct != gamma_buffered) {
    std::fprintf(stderr, "MISMATCH: buffered gamma %zu != direct %zu\n",
                 gamma_buffered, gamma_direct);
    return 1;
  }
  const bool emit_active = pin.emit_buffered > 0;
  std::printf("fixpoint: %zu tuples, %lld buffered puts, %lld flushes%s\n",
              gamma_buffered, static_cast<long long>(pin.emit_buffered),
              static_cast<long long>(pin.emit_flushes),
              emit_active ? "" : "  (emit buffering disabled by env)");

  const Timing t_direct =
      measure([&] { (void)run_wide(width, direct_opts); }, reps);
  const Timing t_buffered =
      measure([&] { (void)run_wide(width, wide_opts); }, reps);
  const double wide_speedup = t_direct.min / t_buffered.min;
  print_row("direct per-put enqueue (emit_buffer off)", t_direct.min);
  print_row("buffered bulk append (emit_buffer on)", t_buffered.min,
            wide_speedup);

  // Buffered wall time across worker counts, as speedup over 1 worker.
  json::Array scaling;
  double one_worker = 0;
  for (const int workers : {1, 2, 4, 8}) {
    EngineOptions o = wide_opts;
    o.threads = workers;
    const Timing t = measure([&] { (void)run_wide(width, o); }, reps);
    if (workers == 1) one_worker = t.min;
    print_row("buffered, " + std::to_string(workers) + " workers", t.min,
              one_worker / t.min);
    scaling.push_back(json::Object{
        {"workers", workers},
        {"seconds", t.min},
        {"speedup_vs_1_worker", one_worker / t.min},
    });
  }

  // --- deep: parallel engine vs sequential engine ---------------------------
  const std::int64_t levels = std::max<std::int64_t>(total / 64, 256);
  print_header("deep chain firing: " + std::to_string(levels) +
               " levels x " + std::to_string(kDeepWidth) + " tuples");
  EngineOptions deep_seq;
  deep_seq.sequential = true;
  EngineOptions deep_par;
  deep_par.sequential = false;
  deep_par.threads = 2;
  const std::size_t deep_gamma = run_deep(levels, deep_par);
  if (deep_gamma != run_deep(levels, deep_seq) ||
      deep_gamma !=
          static_cast<std::size_t>(levels) * static_cast<std::size_t>(
                                                 kDeepWidth)) {
    std::fprintf(stderr, "MISMATCH: deep chain fixpoints diverge\n");
    return 1;
  }
  // A deep run lasts tens of milliseconds, where a descheduled thread or
  // a busy neighbour on a shared host moves one sample by tens of
  // percent: the two engines alternate over five times the reps, and
  // the ratio is taken between their minimums.
  double seq_s = 1e100;
  double par_s = 1e100;
  for (int r = 0; r < 5 * reps; ++r) {
    WallTimer ts;
    (void)run_deep(levels, deep_seq);
    seq_s = std::min(seq_s, ts.seconds());
    WallTimer tp;
    (void)run_deep(levels, deep_par);
    par_s = std::min(par_s, tp.seconds());
  }
  const double deep_ratio = par_s / seq_s;
  print_row("sequential engine", seq_s);
  print_row("parallel engine, 2 workers", par_s, seq_s / par_s);

  // --- split budget: the round trip a split phase pays ---------------------
  print_header("pool round trip (4 workers, median of 400)");
  sched::ForkJoinPool pool(4);
  const double hot_us = round_trip_us(pool, std::chrono::microseconds(0), 400);
  const double idle_us =
      round_trip_us(pool, std::chrono::microseconds(500), 400);
  std::printf("hot workers: %.1f us; after 0.5 ms idle: %.1f us; split "
              "budget: %lld us\n",
              hot_us, idle_us,
              static_cast<long long>(kPhaseSplitBudget.count()));

  // --- headline + JSON ------------------------------------------------------
  std::printf(
      "\nheadline: buffered emission %.2fx over direct per-put enqueue on "
      "the wide workload (bar: %.1fx); 2-worker parallel engine at %.2fx "
      "the sequential time on the deep chain (bar: %.1fx) — %s\n",
      wide_speedup, kWideBar, deep_ratio, kDeepBar,
      enforced ? "enforced" : "recorded only at this scale");

  const json::Value doc = json::Object{
      {"bench", "rule_fire"},
      {"rows", total},
      {"reps", reps},
      {"fire_guard",
       json::Object{
           {"wide_speedup_buffered_vs_direct", wide_speedup},
           {"wide_bar", kWideBar},
           {"wide_direct_seconds", t_direct.min},
           {"wide_buffered_seconds", t_buffered.min},
           {"wide_emit_buffered", pin.emit_buffered},
           {"wide_emit_flushes", pin.emit_flushes},
           {"deep_parallel_vs_sequential", deep_ratio},
           {"deep_bar", kDeepBar},
           {"deep_sequential_seconds", seq_s},
           {"deep_parallel_seconds", par_s},
           {"deep_levels", levels},
           {"enforced", enforced && emit_active},
           {"skipped", !(enforced && emit_active)},
       }},
      {"scaling", std::move(scaling)},
      {"split_budget",
       json::Object{
           {"budget_us", static_cast<std::int64_t>(kPhaseSplitBudget.count())},
           {"round_trip_hot_us", hot_us},
           {"round_trip_idle_500us_us", idle_us},
       }},
  };
  std::FILE* f = std::fopen("BENCH_rule_fire.json", "w");
  if (f != nullptr) {
    const std::string text = json::write(doc);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote BENCH_rule_fire.json\n");
  } else {
    std::printf("could not write BENCH_rule_fire.json\n");
  }

  if (enforced && emit_active && wide_speedup < kWideBar) {
    std::fprintf(stderr,
                 "FAIL: buffered emission speedup %.2fx is below the %.1fx "
                 "acceptance bar\n",
                 wide_speedup, kWideBar);
    return 1;
  }
  if (enforced && deep_ratio > kDeepBar) {
    std::fprintf(stderr,
                 "FAIL: the 2-worker parallel engine takes %.2fx the "
                 "sequential time on the deep chain, above the %.1fx bar\n",
                 deep_ratio, kDeepBar);
    return 1;
  }
  return 0;
}
