// Entry point of the end-to-end benchmark binary:
//
//   e2ebench --workload shortest_path|pvwatts|telemetry_stream
//            --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload for S seconds and prints, as its last stdout line,
// one JSON object: correct / attempted / failed, every metric it measured
// with unit and sample count, the failures, and the host record.  run.py
// turns that into the benchmark's result line.  A traced run also writes
// its spans to DIR/trace-<workload>-seed<N>.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness.h"

namespace {

bool parse_args(int argc, char** argv, e2e::Options& opts) {
  bool seed_set = false, seconds_set = false, trace_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 == argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v, &end, 10);
      seed_set = end != v && *end == '\0';
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v, &end);
      seconds_set = end != v && *end == '\0' && opts.seconds > 0 &&
                    opts.seconds <= 600;
    } else if (a == "--trace") {
      trace_set = std::string(v) == "0" || std::string(v) == "1";
      opts.trace = std::string(v) == "1";
    } else if (a == "--out-dir") {
      opts.out_dir = v;
    } else {
      return false;
    }
  }
  return !opts.workload.empty() && seed_set && seconds_set && trace_set;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opts;
  if (!parse_args(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: %s --workload shortest_path|pvwatts|telemetry_stream "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  void (*run)(const e2e::Options&, e2e::Result&, e2e::SpanLog&) = nullptr;
  if (opts.workload == "shortest_path") run = e2e::run_shortest_path;
  if (opts.workload == "pvwatts") run = e2e::run_pvwatts;
  if (opts.workload == "telemetry_stream") run = e2e::run_telemetry_stream;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }

  e2e::Result result;
  e2e::SpanLog spans;
  try {
    run(opts, result, spans);
  } catch (const std::exception& e) {
    result.fail_all(std::string("run aborted: ") + e.what());
  }
  result.metric("peak_rss_mb", e2e::peak_rss_mb(), "MB");
  result.metric("failed_share",
                result.attempted() > 0
                    ? static_cast<double>(result.failed()) /
                          static_cast<double>(result.attempted())
                    : 1.0,
                "share", result.attempted());

  if (opts.trace) {
    std::error_code ec;
    std::filesystem::create_directories(opts.out_dir, ec);
    const std::string path = opts.out_dir + "/trace-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + ".json";
    std::ofstream out(path);
    out << jstar::json::write(
        jstar::json::Object{{"host", e2e::host_record(opts)},
                            {"spans", spans.to_json()}},
        0);
    if (!out) std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
  std::printf("%s\n", jstar::json::write(result.to_json(opts), 0).c_str());
  return 0;
}
