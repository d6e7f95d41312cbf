// The batch half of the benchmark: a closed loop with one client that runs
// a program to fixpoint again and again, on a fresh engine each time,
// alternating the two strategies of the paper's evaluation: sequential
// (Fig 6) and a pool of 4 workers (Figs 8-13).
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace e2e {

/// A batch workload's program, written against the public Engine / Table
/// API.  One object serves every rep: declare() binds it to a fresh
/// engine, and the table pointers it keeps stay valid until that engine
/// is destroyed.
class BatchProgram {
 public:
  virtual ~BatchProgram() = default;
  /// The program's strategy hints (-noDelta / -noGamma), added to each
  /// strategy's options.
  virtual void hints(jstar::EngineOptions& opts) const = 0;
  /// Declares tables and rules.  `clocks` is non-null on traced passes
  /// only: the rule bodies then time their calls into other layers.
  virtual void declare(jstar::Engine& eng, RuleClocks* clocks) = 0;
  virtual void initial_puts(jstar::Engine& eng) = 0;
  /// Reads the answer out after the fixpoint (part of the timed run).
  virtual void read_answer() = 0;
  /// Compares the answer just read with the independent reference:
  /// empty when right, else what differs.
  virtual std::string check_answer() const = 0;
  /// fire.useful_share: fires of the main rule that produced new output,
  /// over that rule's fires.
  virtual double useful_fire_share() const = 0;
  /// Input records; stream_events_per_s is these over par_s.
  virtual std::int64_t input_records() const = 0;
};

void run_batch(const Options& opts, BatchProgram& program, Result& result,
               SpanLog& spans);

}  // namespace e2e
