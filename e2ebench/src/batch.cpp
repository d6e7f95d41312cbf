#include "batch.h"

#include <exception>
#include <optional>
#include <vector>

namespace e2e {

namespace {

constexpr int kParallelWorkers = 4;
// Set-up is short (a pool start and a few declarations), so before each
// parallel rep the pass also sets up this many engines without running
// them; setup_s is the median over those and the parallel reps, spread
// over the whole run.
constexpr int kSetupOnlyPerRep = 6;
// A rep slower than this counts as failed: reps take milliseconds.
constexpr double kRepDeadlineS = 5.0;

/// The counts that must repeat exactly across reps of one strategy.
struct Counts {
  std::int64_t batches = 0;
  std::int64_t tuples = 0;
  std::int64_t delta_inserts = 0;
  std::int64_t fires = 0;
  std::int64_t queries = 0;
  bool operator==(const Counts&) const = default;

  std::string describe() const {
    return "batches " + std::to_string(batches) + ", tuples " +
           std::to_string(tuples) + ", delta inserts " +
           std::to_string(delta_inserts) + ", fires " + std::to_string(fires) +
           ", queries " + std::to_string(queries);
  }
};

struct Rep {
  double setup_s = 0;
  double run_s = 0;  // run to fixpoint plus reading the answer out
  Counts counts;
  Layers layers;                // traced reps only
  std::vector<double> batch_us;  // traced reps only: one per step
};

jstar::EngineOptions strategy_options(const BatchProgram& program,
                                      bool sequential) {
  jstar::EngineOptions opts;
  opts.sequential = sequential;
  opts.threads = kParallelWorkers;
  program.hints(opts);
  return opts;
}

int open_span(SpanLog* log, const char* name, int parent) {
  return log != nullptr ? log->open(name, parent) : -1;
}

double close_span(SpanLog* log, int id) {
  return log != nullptr ? log->close(id) : 0.0;
}

/// One run to fixpoint on a fresh engine.  Untraced (log == nullptr) it
/// calls Engine::run(); traced it drives Engine::step() with one span per
/// batch and collects the Delta tree's garbage on the same schedule run()
/// uses.  The engine is destroyed after every timed region.
Rep run_rep(BatchProgram& program, bool sequential, SpanLog* log) {
  Rep rep;
  RuleClocks clocks;
  Layers& l = rep.layers;
  const int rep_span = open_span(log, sequential ? "rep.seq" : "rep.par", -1);
  const int setup_span = open_span(log, "setup", rep_span);
  const std::int64_t t0 = now_ns();
  jstar::Engine eng(strategy_options(program, sequential));
  program.declare(eng, log != nullptr ? &clocks : nullptr);
  const int prepare_span = open_span(log, "prepare", setup_span);
  eng.prepare();
  l.setup_prepare_s = close_span(log, prepare_span);
  const int puts_span = open_span(log, "initial_puts", setup_span);
  program.initial_puts(eng);
  const double initial_puts_s = close_span(log, puts_span);
  const std::int64_t t1 = now_ns();
  close_span(log, setup_span);
  rep.setup_s = seconds_between(t0, t1);

  jstar::RunReport report;
  if (log == nullptr) {
    report = eng.run();
  } else {
    const int run_span = log->open("run", rep_span);
    int since_gc = 0;
    for (;;) {
      const int step_span = log->open("engine.step", run_span);
      const bool more = eng.step(&report);
      const double step_s = log->close(step_span);
      l.engine_step_s += step_s;
      if (!more) break;
      rep.batch_us.push_back(step_s * 1e6);
      if (!sequential && ++since_gc >= eng.options().gc_interval_batches) {
        const int gc_span = log->open("delta.collect_garbage", run_span);
        eng.delta().collect_garbage();
        l.delta_gc_s += log->close(gc_span);
        since_gc = 0;
      }
    }
    log->close(run_span);
  }
  const int extract_span = open_span(log, "extract", rep_span);
  program.read_answer();
  l.query_extract_s = close_span(log, extract_span);
  rep.run_s = seconds_between(t1, now_ns());
  close_span(log, rep_span);

  const Counters c = Counters::of(eng);
  rep.counts = Counts{report.batches, report.tuples, c.delta_inserts, c.fires,
                      c.queries};
  if (log != nullptr) {
    l.engine_batches = static_cast<double>(report.batches);
    l.engine_tuples = static_cast<double>(report.tuples);
    l.engine_max_batch = static_cast<double>(report.max_batch);
    l.take_counters(c);
    l.fire_useful_share = program.useful_fire_share();
    l.gamma_live = static_cast<double>(gamma_live(eng));
    l.table_put_s = initial_puts_s + static_cast<double>(clocks.put_ns) * 1e-9;
    l.csv_parse_s = static_cast<double>(clocks.csv_ns) * 1e-9;
    l.query_fold_s = static_cast<double>(clocks.fold_ns) * 1e-9;
  }
  return rep;
}

/// Set-up alone on the parallel strategy: engine, declarations, prepare()
/// and the initial puts; the engine is then dropped unrun.
double setup_only(BatchProgram& program, SpanLog* log) {
  const int span = open_span(log, "setup_only", -1);
  const std::int64_t t0 = now_ns();
  jstar::Engine eng(strategy_options(program, false));
  program.declare(eng, nullptr);
  eng.prepare();
  program.initial_puts(eng);
  const double s = seconds_between(t0, now_ns());
  close_span(log, span);
  return s;
}

/// Samples of one pass; index 0 is sequential, 1 parallel.
struct Pass {
  std::vector<double> setup_s;
  std::vector<double> run_s[2];
  std::vector<Layers> layers[2];
  std::vector<double> batch_us[2];  // every traced step, pooled
};

void run_pass(BatchProgram& program, double budget_s, SpanLog* log,
              std::optional<Counts> (&reference)[2], Result& result,
              Pass& pass) {
  const std::int64_t end_ns =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  int attempts[2] = {0, 0};
  bool sequential = true;
  while (now_ns() < end_ns || attempts[0] == 0 || attempts[1] == 0) {
    const int s = sequential ? 0 : 1;
    const char* name = sequential ? "seq" : "par";
    for (int i = 0; !sequential && i < kSetupOnlyPerRep; ++i) {
      pass.setup_s.push_back(setup_only(program, log));
    }
    ++attempts[s];
    result.attempt(1);
    std::string error;
    try {
      Rep rep = run_rep(program, sequential, log);
      error = program.check_answer();
      if (error.empty() && rep.setup_s + rep.run_s > kRepDeadlineS) {
        error = "overran the " + std::to_string(kRepDeadlineS) + " s deadline";
      }
      if (error.empty() && !reference[s]) reference[s] = rep.counts;
      if (error.empty() && !(rep.counts == *reference[s])) {
        error = "deterministic counts changed: " + rep.counts.describe() +
                " after " + reference[s]->describe();
      }
      if (error.empty()) {
        pass.run_s[s].push_back(rep.run_s);
        if (!sequential) pass.setup_s.push_back(rep.setup_s);
        if (log != nullptr) {
          pass.layers[s].push_back(rep.layers);
          pass.batch_us[s].insert(pass.batch_us[s].end(), rep.batch_us.begin(),
                                  rep.batch_us.end());
        }
      }
    } catch (const std::exception& e) {
      error = std::string("threw: ") + e.what();
    }
    if (!error.empty()) result.fail(1, std::string(name) + " rep: " + error);
    result.progress();
    sequential = !sequential;
  }
}

/// The end-to-end metrics of one pass.
struct EndToEnd {
  double setup_s, seq_s, par_s, p50_ms, events_per_s;
};

EndToEnd end_to_end(const Pass& pass, std::int64_t input_records) {
  EndToEnd e{};
  e.setup_s = median(pass.setup_s);
  e.seq_s = median(pass.run_s[0]);
  e.par_s = median(pass.run_s[1]);
  // A batch request is one run to fixpoint on the 4-worker pool: its
  // latency is par_s, and its input records over par_s its throughput.
  e.p50_ms = e.par_s * 1e3;
  e.events_per_s =
      e.par_s > 0 ? static_cast<double>(input_records) / e.par_s : 0;
  return e;
}

}  // namespace

void run_batch(const Options& opts, BatchProgram& program, Result& result,
               SpanLog& spans) {
  std::optional<Counts> reference[2];
  Pass untraced;
  run_pass(program, opts.trace ? opts.seconds / 2 : opts.seconds, nullptr,
           reference, result, untraced);
  const EndToEnd u = end_to_end(untraced, program.input_records());
  const auto n = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  result.metric("setup_s", u.setup_s, "s", n(untraced.setup_s));
  result.metric("seq_s", u.seq_s, "s", n(untraced.run_s[0]));
  result.metric("par_s", u.par_s, "s", n(untraced.run_s[1]));
  result.metric("stream_p50_ms", u.p50_ms, "ms", n(untraced.run_s[1]));
  result.metric("stream_events_per_s", u.events_per_s, "1/s",
                n(untraced.run_s[1]));
  result.detail("rep_seconds",
                json::Object{{"seq", to_json(untraced.run_s[0])},
                             {"par", to_json(untraced.run_s[1])}});
  if (!opts.trace) return;

  Pass traced;
  run_pass(program, opts.seconds / 2, &spans, reference, result, traced);
  const EndToEnd t = end_to_end(traced, program.input_records());
  result.metric("overhead.setup_s", t.setup_s - u.setup_s, "s");
  result.metric("overhead.seq_s", t.seq_s - u.seq_s, "s");
  result.metric("overhead.par_s", t.par_s - u.par_s, "s");
  result.metric("overhead.stream_p50_ms", t.p50_ms - u.p50_ms, "ms");
  result.metric("overhead.stream_events_per_s",
                t.events_per_s - u.events_per_s, "1/s");
  for (const int s : {0, 1}) {
    // Per-rep medians, except the batch-time distribution, which pools
    // every traced step so its tail has samples to stand on.
    Layers l = median_layers(traced.layers[s]);
    l.engine_batch_us_p50 = median(traced.batch_us[s]);
    l.engine_batch_us_tail = tail(std::move(traced.batch_us[s]));
    result.layers(s == 0 ? "seq." : "par.", l, n(traced.run_s[s]));
  }
}

}  // namespace e2e
