// Randomized differential harness for the streaming execution subsystem
// (src/stream/streaming.h): seeded random rule programs whose puts are
// split across random epoch boundaries and concurrent producer threads,
// asserting the streaming fixpoint is tuple-for-tuple identical to the
// one-shot batch oracle under sequential / BSP / Async schedules x 1/2/8
// shards.  The observed set is taken through the stream's own consumer
// API: every fresh tuple is emitted by a table effect and collected with
// drain() — so the test pins ingestion, epoch slicing, fixpoint reruns
// AND the poll/drain output path at once.
//
// Sweep sizes scale with JSTAR_TEST_SEEDS (default 200; nightly 2000) and
// failures print a one-seed replay command (tests/differential.h).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "differential.h"
#include "stream/streaming.h"
#include "util/rng.h"

namespace jstar::stream {
namespace {

using difftest::Program;
using difftest::Tok;
using difftest::add_rules;
using difftest::oracle_fixpoint;
using difftest::random_program;
using difftest::random_small_program;
using difftest::repro;
using difftest::seed_base;
using difftest::seed_count;
using difftest::tok_decl;

/// A random program plus a richer external stream: the base seeds, extra
/// gen-0 events, and duplicate publishes (cross-epoch redelivery must be a
/// no-op).  The oracle sees the deduplicated seed set.
struct StreamCase {
  Program p;
  std::vector<Tok> publishes;  // in publish order, duplicates included
  int producers = 1;
  std::int64_t max_epoch_tuples = 1;
};

StreamCase make_stream_case(std::uint64_t seed) {
  StreamCase c;
  c.p = random_program(seed * 0x9e3779b9ULL + 1);
  SplitMix64 rng(seed ^ 0x5bf03635c1642f1dULL);
  const std::uint64_t extra = rng.next_below(12);  // 0..11 extra events
  for (std::uint64_t i = 0; i < extra; ++i) {
    c.p.seeds.push_back(Tok{static_cast<std::int64_t>(rng.next_below(
                                static_cast<std::uint64_t>(c.p.keys))),
                            0});
  }
  // Dedup the oracle's seed view; the stream still publishes duplicates.
  for (const Tok& s : c.p.seeds) {
    c.publishes.push_back(s);
    if (rng.next_below(3) == 0) c.publishes.push_back(s);  // duplicate
  }
  c.producers = 1 + static_cast<int>(rng.next_below(3));       // 1..3
  c.max_epoch_tuples = 1 + static_cast<std::int64_t>(rng.next_below(4));
  return c;
}

/// Publishes the case's stream from `producers` concurrent threads
/// (round-robin split), then drains and returns the emitted fixpoint.
template <typename Stream>
std::set<Tok> publish_and_drain(Stream& stream, const StreamCase& c) {
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(c.producers));
  for (int t = 0; t < c.producers; ++t) {
    producers.emplace_back([&stream, &c, t] {
      for (std::size_t i = static_cast<std::size_t>(t);
           i < c.publishes.size();
           i += static_cast<std::size_t>(c.producers)) {
        stream.publish(c.publishes[i]);
      }
    });
  }
  for (auto& th : producers) th.join();
  const std::vector<Tok> out = stream.drain();
  return std::set<Tok>(out.begin(), out.end());
}

/// Streaming over one Engine (sequential or parallel).
std::set<Tok> streaming_single_fixpoint(const StreamCase& c,
                                        const EngineOptions& eopts,
                                        StreamReport* report_out = nullptr) {
  StreamOptions sopts;
  sopts.ring_capacity = 64;
  sopts.max_epoch_tuples = c.max_epoch_tuples;
  StreamingEngine<Tok> stream(
      sopts, eopts,
      [&c](Engine& eng, const StreamingEngine<Tok>::Emit& emit) {
        auto& toks = eng.table(tok_decl().effect(emit));
        add_rules(eng, toks, c.p, [&toks](RuleCtx& ctx, const Tok& t) {
          toks.put(ctx, t);
        });
        return [&toks, &eng](const Tok& t) { eng.put(toks, t); };
      });
  const std::set<Tok> got = publish_and_drain(stream, c);
  if (report_out != nullptr) *report_out = stream.report();
  stream.stop();
  return got;
}

/// Streaming over a sharded cluster under either schedule; ingested and
/// derived tuples are hash-routed to their owner shards.
std::set<Tok> streaming_sharded_fixpoint(const StreamCase& c, int shards,
                                         dist::ShardedMode mode,
                                         bool sequential_engines,
                                         StreamReport* report_out = nullptr) {
  StreamOptions sopts;
  sopts.ring_capacity = 64;
  sopts.max_epoch_tuples = c.max_epoch_tuples;
  EngineOptions eopts;
  eopts.sequential = sequential_engines;
  eopts.threads = 2;
  dist::ShardedOptions dopts;
  dopts.mode = mode;
  ShardedStreamingEngine<Tok> stream(
      sopts, shards, eopts, dopts,
      [&c, shards](int /*shard*/, Engine& eng, dist::Sender<Tok>& sender,
                   const ShardedStreamingEngine<Tok>::Emit& emit) {
        auto& toks = eng.table(tok_decl().effect(emit));
        add_rules(eng, toks, c.p,
                  [&sender, shards](RuleCtx&, const Tok& t) {
                    sender.send(dist::partition_of(t.key, shards), t);
                  });
        return [&toks, &eng](const Tok& t) { eng.put(toks, t); };
      },
      [shards](const Tok& t) { return dist::partition_of(t.key, shards); });
  const std::set<Tok> got = publish_and_drain(stream, c);
  if (report_out != nullptr) *report_out = stream.report();
  stream.stop();
  return got;
}

// ---------------------------------------------------------------------------
// The sweep: >= 200 seeds.  Per seed: the batch oracle, streaming over a
// single engine (sequential; every 4th seed parallel), and streaming over
// the sharded cluster under BSP and async with shard counts cycling
// 1/2/8 (every 8th seed upgrades to parallel shard engines).
// ---------------------------------------------------------------------------

TEST(StreamingDifferential, SeededSweepMatchesBatchOracle) {
  constexpr const char* kFilter =
      "StreamingDifferential.SeededSweepMatchesBatchOracle";
  constexpr const char* kExe = "test_streaming_differential";
  const int shard_choices[] = {1, 2, 8};
  const std::uint64_t base = seed_base();
  const std::uint64_t count = seed_count(200);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    const StreamCase c = make_stream_case(seed);
    const int shards = shard_choices[seed % 3];
    const bool parallel_single = (seed % 4) == 3;
    const bool parallel_shard_engines = (seed % 8) == 7;

    const std::set<Tok> expect = oracle_fixpoint(c.p);

    EngineOptions eopts;
    eopts.sequential = !parallel_single;
    eopts.threads = 2;
    StreamReport single_report;
    ASSERT_EQ(streaming_single_fixpoint(c, eopts, &single_report), expect)
        << (parallel_single ? "(parallel engine), " : "(sequential engine), ")
        << repro(seed, kExe, kFilter);
    // Every publish (duplicates included) was ingested, and the slicing
    // actually split the stream into multiple epochs when it could.
    ASSERT_EQ(single_report.ingested,
              static_cast<std::int64_t>(c.publishes.size()))
        << repro(seed, kExe, kFilter);
    ASSERT_GE(single_report.epochs,
              (static_cast<std::int64_t>(c.publishes.size()) +
               c.max_epoch_tuples - 1) /
                  c.max_epoch_tuples)
        << repro(seed, kExe, kFilter);
    ASSERT_LE(single_report.max_epoch_ingested, c.max_epoch_tuples)
        << repro(seed, kExe, kFilter);

    ASSERT_EQ(streaming_sharded_fixpoint(c, shards, dist::ShardedMode::Bsp,
                                         !parallel_shard_engines),
              expect)
        << "BSP, shards " << shards << ", " << repro(seed, kExe, kFilter);
    ASSERT_EQ(streaming_sharded_fixpoint(c, shards, dist::ShardedMode::Async,
                                         !parallel_shard_engines),
              expect)
        << "async, shards " << shards
        << (parallel_shard_engines ? " (parallel engines), "
                                   : " (sequential engines), ")
        << repro(seed, kExe, kFilter);
  }
}

// ---------------------------------------------------------------------------
// The EngineOptions flag matrix under streaming: the combinations must
// stay oracle-identical when the same program arrives as a stream sliced
// into epochs.  Smaller sweep (the full matrix lives in test_dist_async);
// -noGamma is the interesting axis here because without Gamma dedup a
// duplicate publish re-fires its rules — set semantics of the *output*
// must still converge to the oracle.
// ---------------------------------------------------------------------------

TEST(StreamingDifferential, FlagMatrixUnderStreamingMatchesOracle) {
  constexpr const char* kFilter =
      "StreamingDifferential.FlagMatrixUnderStreamingMatchesOracle";
  constexpr const char* kExe = "test_streaming_differential";
  const std::uint64_t base = seed_base();
  const std::uint64_t count = seed_count(12);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    StreamCase c;
    c.p = random_small_program(seed * 0x51ed2701ULL + 3);
    for (const Tok& s : c.p.seeds) c.publishes.push_back(s);
    c.producers = 2;
    c.max_epoch_tuples = 2;
    const std::set<Tok> expect = oracle_fixpoint(c.p);
    for (const bool sequential : {true, false}) {
      for (const bool no_delta : {false, true}) {
        for (const bool no_gamma : {false, true}) {
          EngineOptions opts;
          opts.sequential = sequential;
          opts.threads = 2;
          opts.task_per_rule = !sequential;
          if (no_delta) opts.no_delta.insert("Tok");
          if (no_gamma) opts.no_gamma.insert("Tok");
          ASSERT_EQ(streaming_single_fixpoint(c, opts), expect)
              << "sequential=" << sequential << " no_delta=" << no_delta
              << " no_gamma=" << no_gamma << ", "
              << repro(seed, kExe, kFilter);
        }
      }
    }
  }
}

}  // namespace
}  // namespace jstar::stream
