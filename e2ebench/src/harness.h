// Shared pieces of the end-to-end benchmark: command-line options, order
// statistics, the in-memory span log, engine counter snapshots, the
// per-layer metric set, and the result every workload fills in.
//
// The benchmark measures from the outside, through the engine's public
// API only: spans wrap the benchmark's own calls into each layer, and the
// engine's per-table counters are read before and after.  Nothing here
// reaches into engine internals.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "util/json.h"

namespace e2e {

namespace json = jstar::json;
using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measuring budget of the run.  A traced run spends half of it on an
  /// untraced pass, so that it can report the tracing overhead.
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its span log (relative to the working
  /// directory).
  std::string out_dir = ".bench_out";
};

/// Samples as a JSON array, for the full record.
json::Value to_json(const std::vector<double>& v);

/// Median of `v` (mean of the middle pair for an even count); 0 if empty.
double median(std::vector<double> v);

/// The highest of p99.9, p99, p90 and p50 that has at least ten samples
/// beyond it.  With fewer than 20 samples no percentile qualifies and the
/// median is returned.
double tail(std::vector<double> v);

/// Spans kept in memory and written out when the run ends.  Opened and
/// closed on the coordinating thread only.  Untraced passes hold no log
/// (a null SpanLog*), so tracing off records nothing.
class SpanLog {
 public:
  SpanLog() : origin_ns_(now_ns()) {}

  /// Opens a span and returns its id; `parent` is the span that caused it.
  int open(const char* name, int parent = -1);
  /// Closes span `id` and returns its duration in seconds.
  double close(int id);

  /// {"total": spans opened, "spans": the first 20 000 of them}.
  json::Value to_json() const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
};

// The engine counters the benchmark reads, one X-macro entry per
// TableStats field, so snapshot, difference and JSON come from one list.
#define E2E_COUNTERS(X) \
  X(puts)               \
  X(delta_inserts)      \
  X(delta_dups)         \
  X(gamma_inserts)      \
  X(gamma_retired)      \
  X(fires)              \
  X(queries)            \
  X(pk_probes)          \
  X(index_lookups)      \
  X(residual_rows)      \
  X(residual_hits)      \
  X(index_retired)      \
  X(upserts)            \
  X(upsert_replaced)    \
  X(emit_flushes)       \
  X(emit_buffered)      \
  X(inline_batches)

/// A snapshot of TableStats counters, for one table or summed over an
/// engine's tables.
struct Counters {
#define E2E_FIELD(name) std::int64_t name = 0;
  E2E_COUNTERS(E2E_FIELD)
#undef E2E_FIELD

  static Counters of(const jstar::TableBase& table);
  static Counters of(const jstar::Engine& eng);
  Counters& operator+=(const Counters& o);
};

/// Total Gamma size over an engine's tables.
std::int64_t gamma_live(const jstar::Engine& eng);

/// Time the benchmark's rule bodies spend inside layer calls the engine
/// does not time itself.  Only traced passes pass one to a program; rule
/// bodies add to it once per call (stream, folds) or once per region
/// (CSV parsing, puts), so workers rarely share the cache line.
struct RuleClocks {
  std::atomic<std::int64_t> csv_ns{0};
  std::atomic<std::int64_t> put_ns{0};
  std::atomic<std::int64_t> fold_ns{0};
};

/// One strategy's per-layer metrics, named as in the benchmark's
/// documentation.  Counts are per run to fixpoint for the batch
/// workloads and per pass for the stream.
struct Layers {
  double engine_batches = 0, engine_tuples = 0, engine_max_batch = 0;
  double engine_step_s = 0, engine_batch_us_p50 = 0, engine_batch_us_tail = 0;
  double delta_inserts = 0, delta_useful_share = 0, delta_gc_s = 0;
  double emit_buffered = 0, emit_flushes = 0, emit_per_flush = 0;
  double fire_fires = 0, fire_useful_share = 0, fire_inline_share = 0;
  double gamma_inserts = 0, gamma_live = 0, table_put_s = 0;
  double csv_parse_s = 0;
  double query_queries = 0, query_pk_probes = 0, query_index_lookups = 0;
  double query_residual_rows = 0, query_residual_hit_share = 0;
  double query_fold_s = 0, query_extract_s = 0;
  double window_retired = 0, window_index_retired = 0, window_live = 0;
  double counted_upserts = 0, counted_replaced = 0;
  double stream_epochs = 0, stream_events_per_epoch = 0;
  double stream_epoch_us_p50 = 0, stream_epoch_us_tail = 0;
  double stream_busy_share = 0, stream_publish_us_tail = 0;
  double stream_gen_lag_ms_max = 0, stream_latency_tail_ms = 0;
  double setup_prepare_s = 0;

  /// Fills every counter-derived field from a snapshot; set
  /// engine_batches first, fire.inline_share is a share of it.
  void take_counters(const Counters& c);
};

/// Field-wise median over per-rep layer metrics.
Layers median_layers(const std::vector<Layers>& reps);

/// What one run reports: its operations, failures and metrics.
class Result {
 public:
  void attempt(std::int64_t ops) { attempted_ += ops; }
  /// Counts `ops` failed operations; the first few reasons are kept.
  void fail(std::int64_t ops, const std::string& why);
  /// A run that aborted: every operation it attempted counts as failed.
  void fail_all(const std::string& why);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

  /// Records a metric with its unit and the number of samples behind it.
  void metric(const std::string& name, double value, const char* unit,
              std::int64_t samples = 1);
  /// Records one strategy's per-layer metrics under `prefix` ("seq."/"par.").
  void layers(const std::string& prefix, const Layers& l,
              std::int64_t samples);
  /// Extra structured detail for the full record (phase breakdowns).
  void detail(const std::string& key, json::Value v);

  /// Prints "progress attempted=N failed=M" on stderr, so a wrapper can
  /// count the operations of a run that dies.
  void progress() const;

  json::Value to_json(const Options& opts) const;

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
    std::int64_t samples;
  };
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
  json::Object details_;
};

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// The record that decides which results may be compared: host cores,
/// SIMD dispatch, the JSTAR_* switches, build type, workload and seed.
json::Value host_record(const Options& opts);

/// The workloads.  `spans` receives the traced pass's spans.
void run_shortest_path(const Options& opts, Result& result, SpanLog& spans);
void run_pvwatts(const Options& opts, Result& result, SpanLog& spans);
void run_telemetry_stream(const Options& opts, Result& result,
                          SpanLog& spans);

}  // namespace e2e
