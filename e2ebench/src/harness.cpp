#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "core/simd.h"

namespace e2e {

namespace {

double share(double part, double whole) { return whole > 0 ? part / whole : 0; }

int nproc() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return static_cast<int>(std::thread::hardware_concurrency());
}

// Name and unit of every per-layer metric, in report order.  The batch
// workloads and the stream fill the same set.
#define E2E_LAYERS(X)                                              \
  X(engine_batches, "engine.batches", "count")                     \
  X(engine_tuples, "engine.tuples", "count")                       \
  X(engine_max_batch, "engine.max_batch", "count")                 \
  X(engine_step_s, "engine.step_s", "s")                           \
  X(engine_batch_us_p50, "engine.batch_us_p50", "us")              \
  X(engine_batch_us_tail, "engine.batch_us_tail", "us")            \
  X(delta_inserts, "delta.inserts", "count")                       \
  X(delta_useful_share, "delta.useful_share", "share")             \
  X(delta_gc_s, "delta.gc_s", "s")                                 \
  X(emit_buffered, "emit.buffered", "count")                       \
  X(emit_flushes, "emit.flushes", "count")                         \
  X(emit_per_flush, "emit.per_flush", "count")                     \
  X(fire_fires, "fire.fires", "count")                             \
  X(fire_useful_share, "fire.useful_share", "share")               \
  X(fire_inline_share, "fire.inline_share", "share")               \
  X(gamma_inserts, "gamma.inserts", "count")                       \
  X(gamma_live, "gamma.live", "count")                             \
  X(table_put_s, "table.put_s", "s")                               \
  X(csv_parse_s, "csv.parse_s", "s")                               \
  X(query_queries, "query.queries", "count")                       \
  X(query_pk_probes, "query.pk_probes", "count")                   \
  X(query_index_lookups, "query.index_lookups", "count")           \
  X(query_residual_rows, "query.residual_rows", "count")           \
  X(query_residual_hit_share, "query.residual_hit_share", "share") \
  X(query_fold_s, "query.fold_s", "s")                             \
  X(query_extract_s, "query.extract_s", "s")                       \
  X(window_retired, "window.retired", "count")                     \
  X(window_index_retired, "window.index_retired", "count")         \
  X(window_live, "window.live", "count")                           \
  X(counted_upserts, "counted.upserts", "count")                   \
  X(counted_replaced, "counted.replaced", "count")                 \
  X(stream_epochs, "stream.epochs", "count")                       \
  X(stream_events_per_epoch, "stream.events_per_epoch", "count")   \
  X(stream_epoch_us_p50, "stream.epoch_us_p50", "us")              \
  X(stream_epoch_us_tail, "stream.epoch_us_tail", "us")            \
  X(stream_busy_share, "stream.busy_share", "share")               \
  X(stream_publish_us_tail, "stream.publish_us_tail", "us")        \
  X(stream_gen_lag_ms_max, "stream.gen_lag_ms_max", "ms")          \
  X(stream_latency_tail_ms, "stream.latency_tail_ms", "ms")        \
  X(setup_prepare_s, "setup.prepare_s", "s")

}  // namespace

json::Value to_json(const std::vector<double>& v) {
  return json::Array(v.begin(), v.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v) {
  const std::size_t n = v.size();
  for (const double q : {0.999, 0.99, 0.9}) {
    // Nearest-rank percentile: rank ceil(q n), with n - rank beyond it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    if (rank >= 1 && n - rank >= 10) {
      std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                       v.end());
      return v[rank - 1];
    }
  }
  return median(std::move(v));
}

int SpanLog::open(const char* name, int parent) {
  spans_.push_back(Span{name, parent, now_ns(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  return seconds_between(s.start_ns, s.end_ns);
}

json::Value SpanLog::to_json() const {
  // A traced pass opens tens of thousands of spans; the first ones show
  // every kind, so the file keeps those and counts the rest.
  constexpr std::size_t kWritten = 20000;
  const std::size_t n = std::min(spans_.size(), kWritten);
  json::Array out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out.emplace_back(json::Object{
        {"id", static_cast<std::int64_t>(i)},
        {"name", s.name},
        {"parent", s.parent},
        {"start_us", static_cast<double>(s.start_ns - origin_ns_) * 1e-3},
        {"dur_us", static_cast<double>(s.end_ns - s.start_ns) * 1e-3}});
  }
  return json::Object{{"total", static_cast<std::int64_t>(spans_.size())},
                      {"spans", std::move(out)}};
}

Counters Counters::of(const jstar::TableBase& table) {
  Counters c;
  const jstar::TableStats& s = table.stats();
#define E2E_READ(name) c.name = s.name.load(std::memory_order_relaxed);
  E2E_COUNTERS(E2E_READ)
#undef E2E_READ
  return c;
}

Counters Counters::of(const jstar::Engine& eng) {
  Counters sum;
  for (const jstar::TableBase* t : eng.all_tables()) sum += of(*t);
  return sum;
}

Counters& Counters::operator+=(const Counters& o) {
#define E2E_ADD(name) name += o.name;
  E2E_COUNTERS(E2E_ADD)
#undef E2E_ADD
  return *this;
}

std::int64_t gamma_live(const jstar::Engine& eng) {
  std::int64_t n = 0;
  for (const jstar::TableBase* t : eng.all_tables()) {
    n += static_cast<std::int64_t>(t->gamma_size());
  }
  return n;
}

void Layers::take_counters(const Counters& c) {
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  delta_inserts = d(c.delta_inserts);
  delta_useful_share = share(d(c.delta_inserts), d(c.delta_inserts + c.delta_dups));
  emit_buffered = d(c.emit_buffered);
  emit_flushes = d(c.emit_flushes);
  emit_per_flush = share(d(c.emit_buffered), d(c.emit_flushes));
  fire_fires = d(c.fires);
  fire_inline_share = share(d(c.inline_batches), engine_batches);
  gamma_inserts = d(c.gamma_inserts);
  query_queries = d(c.queries);
  query_pk_probes = d(c.pk_probes);
  query_index_lookups = d(c.index_lookups);
  query_residual_rows = d(c.residual_rows);
  query_residual_hit_share = share(d(c.residual_hits), d(c.residual_rows));
  window_retired = d(c.gamma_retired);
  window_index_retired = d(c.index_retired);
  counted_upserts = d(c.upserts);
  counted_replaced = d(c.upsert_replaced);
}

Layers median_layers(const std::vector<Layers>& reps) {
  Layers out;
  std::vector<double> v;
#define E2E_MEDIAN(field, name, unit)                 \
  v.clear();                                          \
  for (const Layers& l : reps) v.push_back(l.field); \
  out.field = median(v);
  E2E_LAYERS(E2E_MEDIAN)
#undef E2E_MEDIAN
  return out;
}

void Result::fail(std::int64_t ops, const std::string& why) {
  failed_ += ops;
  if (failures_.size() < 8) failures_.push_back(why);
}

void Result::fail_all(const std::string& why) {
  if (attempted_ == 0) attempted_ = 1;
  fail(attempted_ - failed_, why);
}

void Result::metric(const std::string& name, double value, const char* unit,
                    std::int64_t samples) {
  if (!std::isfinite(value)) {
    fail(1, "metric " + name + " is not finite");
    value = 0;
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Result::layers(const std::string& prefix, const Layers& l,
                    std::int64_t samples) {
#define E2E_EMIT(field, name, unit) metric(prefix + name, l.field, unit, samples);
  E2E_LAYERS(E2E_EMIT)
#undef E2E_EMIT
}

void Result::detail(const std::string& key, json::Value v) {
  details_.emplace_back(key, std::move(v));
}

void Result::progress() const {
  std::fprintf(stderr, "progress attempted=%lld failed=%lld\n",
               static_cast<long long>(attempted_),
               static_cast<long long>(failed_));
}

json::Value Result::to_json(const Options& opts) const {
  json::Object metrics;
  json::Object samples;
  for (const Metric& m : metrics_) {
    metrics.emplace_back(m.name,
                         json::Object{{"value", m.value}, {"unit", m.unit}});
    samples.emplace_back(m.name, m.samples);
  }
  json::Array failures(failures_.begin(), failures_.end());
  return json::Object{{"correct", failed_ == 0 && attempted_ > 0},
                      {"attempted", attempted_},
                      {"failed", failed_},
                      {"metrics", std::move(metrics)},
                      {"samples", std::move(samples)},
                      {"failures", std::move(failures)},
                      {"host", host_record(opts)},
                      {"details", details_}};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

json::Value host_record(const Options& opts) {
  return json::Object{
      {"workload", opts.workload},
      {"seed", static_cast<std::int64_t>(opts.seed)},
      {"seconds", opts.seconds},
      {"nproc", nproc()},
      {"simd", jstar::simd::to_string(jstar::simd::active_level())},
      {"morsels", jstar::simd::morsels_env_on()},
      {"emit", jstar::simd::emit_env_on()},
      {"build_type", E2E_BUILD_TYPE}};
}

}  // namespace e2e
