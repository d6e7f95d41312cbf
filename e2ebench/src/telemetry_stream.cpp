// telemetry_stream: a StreamingEngine fed by one producer thread.
// Reading(sensor, seq, value, due) events arrive with S sensors in
// round-robin order.  Reading is retain(W) on the default store with an
// index on sensor.  Its rule probes the sensor's previous reading
// (seq - S) through a planned query, upserts the sensor's counted Latest
// row, and emits an Ack stamped at emission.
//
// Phase A is an open loop: a seeded Poisson schedule below saturation,
// the producer sleeping until each due time, latency measured from the
// due time.  Phase B is a closed loop: a fixed burst published back to
// back, then drained.  Both phases run on the sequential engine and on a
// pool of 2 workers (with the producer and the epoch loop, 4 threads).
//
// Why this workload: it is the only one with many tiny batches (two per
// epoch, about one event per epoch in phase A), and the only one with
// retention, counted upserts and the ingest ring.  Two constraints keep
// its output independent of how events are sliced into epochs:
//   * W >= S + 1 epochs, so the previous reading of a sensor is live;
//   * S > max_epoch_tuples, so no batch holds two readings of a sensor.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "harness.h"
#include "stream/streaming.h"
#include "util/rng.h"

namespace e2e {

namespace {

struct Reading {
  std::int64_t sensor, seq, value, due_ns;
  auto operator<=>(const Reading&) const = default;
};

struct Latest {
  std::int64_t sensor, seq, value;
  auto operator<=>(const Latest&) const = default;
};

struct Ack {
  std::int64_t seq, prev, due_ns, emitted_ns;
};

// Ack::prev of a sensor's first reading, and of a reading whose
// predecessor the window had already dropped (always wrong).
constexpr std::int64_t kNoPrevious = -1;
constexpr std::int64_t kLostPrevious = -2;

struct Sizing {
  std::int64_t sensors;    // S
  std::int64_t window;     // W, in engine epochs
  std::int64_t epoch_cap;  // StreamOptions::max_epoch_tuples
  double rate;             // phase A events per second
  double segment_s;        // length of one phase A segment
  std::int64_t burst;      // phase B events
  int workers;             // pool of the parallel strategy
};

// A window of at most W x cap = 2560 readings keeps the hot state in the
// core's own caches (see shortest_path for why that matters).
constexpr Sizing kSizing{64, 80, 32, 20000.0, 1.0, 10000, 2};
static_assert(kSizing.window >= kSizing.sensors + 1 &&
              kSizing.sensors > kSizing.epoch_cap);

constexpr int kBurstsPerRound = 3;
// Set-up is a fraction of a millisecond and mostly thread starts, so each
// round also sets up this many streams without running them; setup_s is
// the median over those and the parallel streams that ran.
constexpr int kSetupOnlyPerRound = 12;

using Stream = jstar::stream::StreamingEngine<Reading, Ack>;

/// The program, declared on a fresh StreamingEngine.
class Telemetry {
 public:
  Telemetry(const Sizing& z, bool sequential, RuleClocks* clocks)
      : sensors_(z.sensors),
        clocks_(clocks),
        stream_(stream_options(z), engine_options(z, sequential),
                Stream::Setup([this, window = z.window](
                                  jstar::Engine& eng, const Stream::Emit& emit) {
                  return declare(eng, emit, window);
                })) {}

  Stream& stream() { return stream_; }
  jstar::Table<Reading>& readings() { return *readings_; }
  jstar::Table<Latest>& latest() { return *latest_; }
  double prepare_s() const { return prepare_s_; }

 private:
  static jstar::stream::StreamOptions stream_options(const Sizing& z) {
    jstar::stream::StreamOptions o;
    o.max_epoch_tuples = z.epoch_cap;
    // Polled every few milliseconds; large enough that no epoch is lost
    // even when the poller is descheduled.
    o.epoch_log_capacity = 1 << 16;
    return o;
  }

  static jstar::EngineOptions engine_options(const Sizing& z, bool sequential) {
    jstar::EngineOptions o;
    o.sequential = sequential;
    o.threads = z.workers;
    return o;
  }

  Stream::Deliver declare(jstar::Engine& eng, const Stream::Emit& emit,
                          std::int64_t window) {
    auto& readings = eng.table(jstar::TableDecl<Reading>("Reading")
                                   .orderby_lit("Reading")
                                   .hash([](const Reading& r) {
                                     return jstar::hash_fields(r.sensor, r.seq,
                                                               r.value, r.due_ns);
                                   })
                                   .retain(window));
    readings.add_index(&Reading::sensor);
    auto& latest = eng.table(jstar::TableDecl<Latest>("Latest")
                                 .orderby_lit("Latest")
                                 .hash([](const Latest& l) {
                                   return jstar::hash_fields(l.sensor, l.seq,
                                                             l.value);
                                 })
                                 .primary_key(&Latest::sensor)
                                 .counted());
    eng.order({"Reading", "Latest"});
    eng.rule(readings, "ack",
             [this, &readings, &latest, emit](jstar::RuleCtx& ctx,
                                              const Reading& r) {
               std::int64_t prev = kNoPrevious;
               if (r.seq >= sensors_) {
                 const std::int64_t t0 = clocks_ != nullptr ? now_ns() : 0;
                 const std::optional<Reading> hit = readings.find_if(
                     jstar::query::eq(&Reading::sensor, r.sensor) &&
                     jstar::query::eq(&Reading::seq, r.seq - sensors_));
                 if (clocks_ != nullptr) {
                   clocks_->fold_ns.fetch_add(now_ns() - t0,
                                              std::memory_order_relaxed);
                 }
                 prev = hit ? hit->value : kLostPrevious;
               }
               const std::int64_t t1 = clocks_ != nullptr ? now_ns() : 0;
               latest.upsert(ctx, Latest{r.sensor, r.seq, r.value});
               if (clocks_ != nullptr) {
                 clocks_->put_ns.fetch_add(now_ns() - t1,
                                           std::memory_order_relaxed);
               }
               emit(Ack{r.seq, prev, r.due_ns, now_ns()});
             });
    readings_ = &readings;
    latest_ = &latest;
    // The stream's constructor calls prepare() after this returns, where
    // the benchmark cannot time it; calling it here makes that a no-op.
    const std::int64_t t0 = now_ns();
    eng.prepare();
    prepare_s_ = seconds_between(t0, now_ns());
    return [&eng, &readings](const Reading& r) { eng.put(readings, r); };
  }

  const std::int64_t sensors_;
  RuleClocks* const clocks_;
  jstar::Table<Reading>* readings_ = nullptr;
  jstar::Table<Latest>* latest_ = nullptr;
  double prepare_s_ = 0;
  Stream stream_;  // last: its constructor runs declare(), which sets the above
};

/// One phase's input: values per seq and, for the open loop, each event's
/// due time as an offset from the phase start.
struct Input {
  std::vector<std::int64_t> values;
  std::vector<std::int64_t> due_offset_ns;  // empty: closed loop
};

Input make_input(std::int64_t events, double rate, std::uint64_t seed,
                 std::uint64_t stream_index) {
  Input in;
  jstar::SplitMix64 rng = jstar::SplitMix64(seed).split(stream_index);
  in.values.resize(static_cast<std::size_t>(events));
  for (auto& v : in.values) v = static_cast<std::int64_t>(rng.next_below(1000000));
  if (rate > 0) {
    // Poisson arrivals: exponential gaps with mean 1 / rate.
    in.due_offset_ns.resize(static_cast<std::size_t>(events));
    double t = 0;
    for (auto& due : in.due_offset_ns) {
      t += -std::log(1.0 - rng.next_double()) / rate;
      due = static_cast<std::int64_t>(t * 1e9);
    }
  }
  return in;
}

/// Checks every Ack as it is polled: each seq acked once, with the value
/// of the sensor's previous reading.
class AckCheck {
 public:
  AckCheck(const Input& in, std::int64_t sensors)
      : in_(in), sensors_(sensors), seen_(in.values.size(), 0) {}

  void absorb(const std::vector<Ack>& acks, std::vector<double>* latency_ms) {
    const auto events = static_cast<std::int64_t>(in_.values.size());
    for (const Ack& a : acks) {
      if (a.seq < 0 || a.seq >= events || seen_[static_cast<std::size_t>(a.seq)]) {
        bad("duplicate or unknown ack for seq " + std::to_string(a.seq));
        continue;
      }
      seen_[static_cast<std::size_t>(a.seq)] = 1;
      const std::int64_t want =
          a.seq >= sensors_
              ? in_.values[static_cast<std::size_t>(a.seq - sensors_)]
              : kNoPrevious;
      if (a.prev != want) {
        bad("seq " + std::to_string(a.seq) + " acked previous " +
            std::to_string(a.prev) + ", want " + std::to_string(want));
      }
      if (latency_ms != nullptr) {
        latency_ms->push_back(static_cast<double>(a.emitted_ns - a.due_ns) * 1e-6);
      }
    }
  }

  /// Counts the events never acked.
  void finish() {
    for (std::size_t i = 0; i < seen_.size(); ++i) {
      if (!seen_[i]) bad("seq " + std::to_string(i) + " never acked");
    }
  }

  void bad(const std::string& why) {
    if (failed_++ == 0) first_error_ = why;
  }

  std::int64_t failed() const { return failed_; }
  const std::string& first_error() const { return first_error_; }

 private:
  const Input& in_;
  const std::int64_t sensors_;
  std::vector<std::uint8_t> seen_;
  std::int64_t failed_ = 0;
  std::string first_error_;
};

/// What one stream instance (one phase A, or one burst) measured.
struct PhaseRun {
  double setup_s = 0;
  double prepare_s = 0;
  double wall_s = 0;  // first publish until drain() returned
  std::vector<double> latency_ms;
  double gen_lag_max_ms = 0;
  std::vector<double> publish_us;  // traced only
  std::vector<jstar::stream::EpochStats> epochs;
  jstar::stream::StreamReport report;
  Counters readings, latest;
  double extract_s = 0;
  double window_live = 0;
  double gamma_live = 0;
  double put_s = 0;
  double fold_s = 0;
  std::int64_t events = 0;
  std::int64_t failed = 0;  // bad acks plus wrong Latest rows
  std::string first_error;
};

void relax_timer_slack() {
#ifdef __linux__
  // Wake from sleep_until within ~1 us of the due time instead of the
  // default 50 us slack, so the generator's own lateness stays small.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

PhaseRun run_phase(const Sizing& z, bool sequential, const Input& in,
                   bool traced) {
  PhaseRun out;
  RuleClocks clocks;
  const bool open_loop = !in.due_offset_ns.empty();
  const auto events = static_cast<std::int64_t>(in.values.size());
  out.events = events;

  const std::int64_t t0 = now_ns();
  Telemetry tel(z, sequential, traced ? &clocks : nullptr);
  out.setup_s = seconds_between(t0, now_ns());
  out.prepare_s = tel.prepare_s();
  Stream& stream = tel.stream();
  AckCheck check(in, z.sensors);
  std::vector<double>* latency = open_loop ? &out.latency_ms : nullptr;

  std::atomic<bool> produced{false};
  std::int64_t first_publish_ns = 0;
  {
    std::jthread producer([&] {
      relax_timer_slack();
      const std::int64_t start = now_ns();
      first_publish_ns = start;
      std::int64_t lag_max_ns = 0;
      for (std::int64_t i = 0; i < events; ++i) {
        std::int64_t due = 0;
        if (open_loop) {
          due = start + in.due_offset_ns[static_cast<std::size_t>(i)];
          std::int64_t now = now_ns();
          if (now < due) {
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::nanoseconds(due)));
            now = now_ns();
          }
          lag_max_ns = std::max(lag_max_ns, now - due);
        } else {
          due = now_ns();
        }
        const Reading r{i % z.sensors, i, in.values[static_cast<std::size_t>(i)],
                        due};
        if (traced) {
          const std::int64_t p0 = now_ns();
          stream.publish(r);
          out.publish_us.push_back(static_cast<double>(now_ns() - p0) * 1e-3);
        } else {
          stream.publish(r);
        }
      }
      out.gen_lag_max_ms = static_cast<double>(lag_max_ns) * 1e-6;
      produced.store(true, std::memory_order_release);
    });
    // Poll Acks and epochs while the producer runs, so buffered output
    // never piles up.
    while (!produced.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      check.absorb(stream.poll(), latency);
      const auto epochs = stream.poll_epochs();
      out.epochs.insert(out.epochs.end(), epochs.begin(), epochs.end());
    }
  }
  check.absorb(stream.drain(), latency);
  out.wall_s = seconds_between(first_publish_ns, now_ns());
  const auto epochs = stream.poll_epochs();
  out.epochs.insert(out.epochs.end(), epochs.begin(), epochs.end());
  out.report = stream.report();
  check.finish();

  // Read the answer out: each sensor's Latest row, which must be its last
  // reading.
  const std::int64_t x0 = now_ns();
  std::vector<std::optional<Latest>> rows;
  rows.reserve(static_cast<std::size_t>(z.sensors));
  for (std::int64_t s = 0; s < z.sensors; ++s) {
    rows.push_back(tel.latest().get_unique(s));
  }
  out.extract_s = seconds_between(x0, now_ns());
  for (std::int64_t s = 0; s < z.sensors; ++s) {
    std::optional<Latest> want;
    if (s < events) {
      const std::int64_t last = s + z.sensors * ((events - 1 - s) / z.sensors);
      want = Latest{s, last, in.values[static_cast<std::size_t>(last)]};
    }
    if (rows[static_cast<std::size_t>(s)] != want) {
      check.bad("wrong Latest row for sensor " + std::to_string(s));
    }
  }
  out.failed = check.failed();
  out.first_error = check.first_error();

  jstar::Engine& eng = stream.engine();
  out.readings = Counters::of(tel.readings());
  out.latest = Counters::of(tel.latest());
  out.window_live = static_cast<double>(tel.readings().gamma_size());
  out.gamma_live = static_cast<double>(gamma_live(eng));
  out.put_s = static_cast<double>(clocks.put_ns) * 1e-9;
  out.fold_s = static_cast<double>(clocks.fold_ns) * 1e-9;
  return out;
}

/// One strategy's per-layer metrics over every stream instance of a
/// traced pass (phase A and the bursts): counts and times are totals,
/// distributions pool every epoch.
Layers stream_layers(const std::vector<PhaseRun>& runs) {
  Layers l;
  Counters readings, latest;
  std::vector<double> epoch_us, batch_us, publish_us, latency_ms, prepare_s,
      window_live, gamma_live;
  double ingested = 0, busy_s = 0, wall_s = 0;
  for (const PhaseRun& r : runs) {
    for (const auto& e : r.epochs) {
      l.engine_batches += static_cast<double>(e.batches);
      l.engine_tuples += static_cast<double>(e.tuples);
      // All of an epoch's readings form its first batch.
      l.engine_max_batch = std::max(l.engine_max_batch, static_cast<double>(e.ingested));
      l.engine_step_s += e.seconds;
      epoch_us.push_back(e.seconds * 1e6);
      if (e.batches > 0) {
        batch_us.push_back(e.seconds * 1e6 / static_cast<double>(e.batches));
      }
    }
    l.stream_epochs += static_cast<double>(r.report.epochs);
    ingested += static_cast<double>(r.report.ingested);
    busy_s += r.report.busy_seconds;
    wall_s += r.wall_s;
    readings += r.readings;
    latest += r.latest;
    publish_us.insert(publish_us.end(), r.publish_us.begin(), r.publish_us.end());
    latency_ms.insert(latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
    l.stream_gen_lag_ms_max = std::max(l.stream_gen_lag_ms_max, r.gen_lag_max_ms);
    l.table_put_s += r.put_s;
    l.query_fold_s += r.fold_s;
    l.query_extract_s += r.extract_s;
    prepare_s.push_back(r.prepare_s);
    window_live.push_back(r.window_live);
    gamma_live.push_back(r.gamma_live);
  }
  Counters total = readings;
  total += latest;
  l.take_counters(total);
  // Every reading upserts its sensor's row: useful when the row is new.
  l.fire_useful_share = readings.fires > 0
                            ? static_cast<double>(latest.gamma_inserts) /
                                  static_cast<double>(readings.fires)
                            : 0;
  l.engine_batch_us_p50 = median(batch_us);
  l.engine_batch_us_tail = tail(std::move(batch_us));
  l.gamma_live = median(gamma_live);
  l.window_live = median(window_live);
  l.stream_events_per_epoch = l.stream_epochs > 0 ? ingested / l.stream_epochs : 0;
  l.stream_epoch_us_p50 = median(epoch_us);
  l.stream_epoch_us_tail = tail(std::move(epoch_us));
  l.stream_busy_share = wall_s > 0 ? busy_s / wall_s : 0;
  l.stream_publish_us_tail = tail(std::move(publish_us));
  l.stream_latency_tail_ms = tail(std::move(latency_ms));
  l.setup_prepare_s = median(prepare_s);
  return l;
}

/// Samples of one pass; index 0 is sequential, 1 parallel.
struct Pass {
  std::vector<double> setup_s;  // parallel stream
  std::vector<double> latency_ms[2];
  double gen_lag_max_ms[2] = {0, 0};
  double phase_a_busy_s[2] = {0, 0};
  double phase_a_wall_s[2] = {0, 0};
  std::vector<double> burst_s[2];
  std::vector<PhaseRun> runs[2];  // traced pass only
};

/// One stream instance of the pass, accounted and (traced) kept.
PhaseRun run_instance(const Sizing& z, int s, const Input& in, const char* what,
                      SpanLog* log, Result& result, Pass& pass) {
  const int span = log != nullptr ? log->open(what) : -1;
  PhaseRun r = run_phase(z, s == 0, in, log != nullptr);
  if (log != nullptr) log->close(span);
  result.attempt(r.events + z.sensors);
  if (r.failed > 0) result.fail(r.failed, std::string(what) + ": " + r.first_error);
  result.progress();
  if (r.failed == 0 && s == 1) pass.setup_s.push_back(r.setup_s);
  return r;
}

/// Rounds until the budget is spent: set-ups without a run, one phase A
/// segment per strategy, then kBurstsPerRound bursts per strategy.  Short
/// interleaved segments spread every metric's samples over the whole run,
/// so a few seconds of host interference move no median far.
void run_pass(const Sizing& z, const Input& phase_a, const Input& burst,
              double budget_s, SpanLog* log, Result& result, Pass& pass) {
  const std::int64_t end_ns = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  const auto keep = [&](int s, PhaseRun&& r) {
    if (log != nullptr) pass.runs[s].push_back(std::move(r));
  };
  do {
    for (int i = 0; i < kSetupOnlyPerRound; ++i) {
      const int span = log != nullptr ? log->open("setup_only") : -1;
      const std::int64_t t0 = now_ns();
      { Telemetry tel(z, false, nullptr); }
      pass.setup_s.push_back(seconds_between(t0, now_ns()));
      if (log != nullptr) log->close(span);
    }
    for (const int s : {0, 1}) {
      PhaseRun r = run_instance(z, s, phase_a, s == 0 ? "phase_a.seq" : "phase_a.par",
                                log, result, pass);
      if (r.failed == 0) {
        pass.latency_ms[s].insert(pass.latency_ms[s].end(), r.latency_ms.begin(),
                                  r.latency_ms.end());
        pass.gen_lag_max_ms[s] = std::max(pass.gen_lag_max_ms[s], r.gen_lag_max_ms);
        pass.phase_a_busy_s[s] += r.report.busy_seconds;
        pass.phase_a_wall_s[s] += r.wall_s;
      }
      keep(s, std::move(r));
    }
    for (int k = 0; k < kBurstsPerRound; ++k) {
      for (const int s : {0, 1}) {
        PhaseRun r = run_instance(z, s, burst, s == 0 ? "burst.seq" : "burst.par",
                                  log, result, pass);
        if (r.failed == 0) pass.burst_s[s].push_back(r.wall_s);
        keep(s, std::move(r));
      }
    }
  } while (now_ns() < end_ns);
}

struct EndToEnd {
  double setup_s, seq_s, par_s, p50_ms, events_per_s;
};

EndToEnd end_to_end(const Pass& pass, const Sizing& z) {
  EndToEnd e{};
  e.setup_s = median(pass.setup_s);
  e.seq_s = median(pass.burst_s[0]);
  e.par_s = median(pass.burst_s[1]);
  e.p50_ms = median(pass.latency_ms[1]);
  e.events_per_s = e.par_s > 0 ? static_cast<double>(z.burst) / e.par_s : 0;
  return e;
}

}  // namespace

void run_telemetry_stream(const Options& opts, Result& result, SpanLog& spans) {
  const Sizing& z = kSizing;
  const double pass_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const auto phase_a_events = static_cast<std::int64_t>(z.rate * z.segment_s);
  const Input phase_a = make_input(phase_a_events, z.rate, opts.seed, 1);
  const Input burst = make_input(z.burst, 0, opts.seed, 2);
  result.detail("input", json::Object{{"sensors", z.sensors},
                                      {"window_epochs", z.window},
                                      {"epoch_cap", z.epoch_cap},
                                      {"rate_per_s", z.rate},
                                      {"phase_a_segment_events", phase_a_events},
                                      {"burst_events", z.burst},
                                      {"workers", z.workers}});

  Pass untraced;
  run_pass(z, phase_a, burst, pass_s, nullptr, result, untraced);
  const EndToEnd u = end_to_end(untraced, z);
  const auto n = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  result.metric("setup_s", u.setup_s, "s", n(untraced.setup_s));
  result.metric("seq_s", u.seq_s, "s", n(untraced.burst_s[0]));
  result.metric("par_s", u.par_s, "s", n(untraced.burst_s[1]));
  result.metric("stream_p50_ms", u.p50_ms, "ms", n(untraced.latency_ms[1]));
  result.metric("stream_events_per_s", u.events_per_s, "1/s",
                n(untraced.burst_s[1]));
  // The single-threaded baseline of phase A, and how loaded both ran.
  result.metric("phase_a.seq.p50_ms", median(untraced.latency_ms[0]), "ms",
                n(untraced.latency_ms[0]));
  for (const int s : {0, 1}) {
    const std::string p = s == 0 ? "phase_a.seq." : "phase_a.par.";
    result.metric(p + "latency_tail_ms", tail(untraced.latency_ms[s]), "ms",
                  n(untraced.latency_ms[s]));
    result.metric(p + "gen_lag_ms_max", untraced.gen_lag_max_ms[s], "ms");
    result.metric(p + "busy_share",
                  untraced.phase_a_wall_s[s] > 0
                      ? untraced.phase_a_busy_s[s] / untraced.phase_a_wall_s[s]
                      : 0,
                  "share");
  }
  result.detail("burst_seconds",
                json::Object{{"seq", to_json(untraced.burst_s[0])},
                             {"par", to_json(untraced.burst_s[1])}});
  if (!opts.trace) return;

  Pass traced;
  run_pass(z, phase_a, burst, pass_s, &spans, result, traced);
  const EndToEnd t = end_to_end(traced, z);
  result.metric("overhead.setup_s", t.setup_s - u.setup_s, "s");
  result.metric("overhead.seq_s", t.seq_s - u.seq_s, "s");
  result.metric("overhead.par_s", t.par_s - u.par_s, "s");
  result.metric("overhead.stream_p50_ms", t.p50_ms - u.p50_ms, "ms");
  result.metric("overhead.stream_events_per_s", t.events_per_s - u.events_per_s,
                "1/s");
  for (const int s : {0, 1}) {
    result.layers(s == 0 ? "seq." : "par.", stream_layers(traced.runs[s]),
                  static_cast<std::int64_t>(traced.runs[s].size()));
  }
}

}  // namespace e2e
