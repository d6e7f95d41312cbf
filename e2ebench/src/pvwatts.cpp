// pvwatts: the Fig 4 program (§6.2) on generate_csv(N, MonthMajor, seed).
// One Region tuple per CSV slice (64 slices from csv::split_regions,
// ordered `par`, so both strategies run the same batches) parses its slice
// with csv::RecordReader and puts every record -noDelta as a PvRecord into
// the columnar substrate, which carries a composite (year, month) index.
// Each SumMonth then folds its month through a planned query.
//
// Why this workload: there are only two batches, so Delta and per-batch
// costs vanish; CSV parsing, Gamma insert, index maintenance, emit
// de-duplication (all but ~0.1% of the N SumMonth emits are duplicates)
// and index folds dominate instead.  It is the counterweight for any
// Delta-tree change.
#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/pvwatts/pvwatts.h"
#include "batch.h"

namespace e2e {

namespace {

using jstar::apps::pvwatts::MonthlyMeans;
using jstar::apps::pvwatts::PvRecord;
using jstar::apps::pvwatts::SumMonth;

constexpr int kRegions = 64;

struct Region {
  std::int32_t id;
  auto operator<=>(const Region&) const = default;
};

PvRecord parse(const std::vector<jstar::csv::Slice>& f) {
  if (f.size() != 5) throw std::runtime_error("CSV record without 5 fields");
  return PvRecord{static_cast<std::int32_t>(f[0].to_int64()),
                  static_cast<std::int32_t>(f[1].to_int64()),
                  static_cast<std::int32_t>(f[2].to_int64()),
                  static_cast<std::int32_t>(f[3].to_int64()), f[4].to_int64()};
}

class PvWatts final : public BatchProgram {
 public:
  PvWatts(std::int64_t records, std::uint64_t seed)
      : records_(records),
        input_(jstar::apps::pvwatts::generate_csv(
            records, jstar::apps::pvwatts::InputOrder::MonthMajor, seed)),
        regions_(jstar::csv::split_regions(input_.size(), kRegions)),
        reference_(jstar::apps::pvwatts::reference_means(input_)) {}

  void hints(jstar::EngineOptions& opts) const override {
    opts.no_delta.insert("PvWatts");
  }

  void declare(jstar::Engine& eng, RuleClocks* clocks) override {
    auto& region = eng.table(jstar::TableDecl<Region>("Region")
                                 .orderby_lit("Region")
                                 .orderby_par("id")
                                 .hash([](const Region& r) {
                                   return jstar::hash_fields(r.id);
                                 }));
    auto& pv = eng.table(
        jstar::TableDecl<PvRecord>("PvWatts")
            .orderby_lit("PvWatts")
            .hash([](const PvRecord& r) { return std::hash<PvRecord>{}(r); })
            .columns(&PvRecord::year, &PvRecord::month, &PvRecord::day,
                     &PvRecord::hour, &PvRecord::power));
    pv.add_index(&PvRecord::year, &PvRecord::month);
    auto& sum = eng.table(
        jstar::TableDecl<SumMonth>("SumMonth")
            .orderby_lit("SumMonth")
            .hash([](const SumMonth& s) { return std::hash<SumMonth>{}(s); }));
    eng.order({"Region", "PvWatts", "SumMonth"});

    // foreach (PvWatts pv) { put new SumMonth(pv.year, pv.month); }
    eng.rule(pv, "pvToSumMonth", [&sum](jstar::RuleCtx& ctx, const PvRecord& r) {
      sum.put(ctx, SumMonth{r.year, r.month});
    });

    // foreach (Region r) { read its CSV slice }.  Traced, the body times
    // its RecordReader::next plus field conversion and its Table::put
    // calls, and adds them to the shared clocks once per region.
    eng.rule(region, "readRegion",
             [this, &pv, clocks](jstar::RuleCtx& ctx, const Region& r) {
               jstar::csv::RecordReader reader(
                   input_, regions_[static_cast<std::size_t>(r.id)]);
               std::vector<jstar::csv::Slice> fields;
               if (clocks == nullptr) {
                 while (reader.next(fields)) pv.put(ctx, parse(fields));
                 return;
               }
               std::int64_t csv_ns = 0;
               std::int64_t put_ns = 0;
               for (;;) {
                 const std::int64_t t0 = now_ns();
                 if (!reader.next(fields)) {
                   csv_ns += now_ns() - t0;
                   break;
                 }
                 const PvRecord rec = parse(fields);
                 const std::int64_t t1 = now_ns();
                 pv.put(ctx, rec);
                 put_ns += now_ns() - t1;
                 csv_ns += t1 - t0;
               }
               clocks->csv_ns.fetch_add(csv_ns, std::memory_order_relaxed);
               clocks->put_ns.fetch_add(put_ns, std::memory_order_relaxed);
             });

    // foreach (SumMonth s) { Statistics over that month's records }
    eng.rule(sum, "sumMonth",
             [this, &pv, clocks](jstar::RuleCtx&, const SumMonth& s) {
               const std::int64_t t0 = clocks != nullptr ? now_ns() : 0;
               const jstar::Statistics stats = pv.fold<jstar::Statistics>(
                   jstar::query::eq(&PvRecord::year, s.year) &&
                       jstar::query::eq(&PvRecord::month, s.month),
                   &PvRecord::power);
               if (clocks != nullptr) {
                 clocks->fold_ns.fetch_add(now_ns() - t0,
                                           std::memory_order_relaxed);
               }
               std::lock_guard<std::mutex> lk(months_mu_);
               months_[s.year * 100 + s.month] = stats;
             });
    region_ = &region;
    pv_ = &pv;
    sum_ = &sum;
  }

  void initial_puts(jstar::Engine& eng) override {
    for (int i = 0; i < kRegions; ++i) eng.put(*region_, Region{i});
  }

  void read_answer() override {
    std::lock_guard<std::mutex> lk(months_mu_);
    answer_ = std::move(months_);
    months_.clear();
  }

  std::string check_answer() const override {
    if (answer_.size() != reference_.size()) {
      return std::to_string(answer_.size()) + " months, want " +
             std::to_string(reference_.size());
    }
    for (const auto& [ym, want] : reference_) {
      const auto it = answer_.find(ym);
      if (it == answer_.end()) return "month " + std::to_string(ym) + " missing";
      const jstar::Statistics& got = it->second;
      if (got.count() != want.count()) {
        return "month " + std::to_string(ym) + ": " +
               std::to_string(got.count()) + " records, want " +
               std::to_string(want.count());
      }
      const double scale = std::max(1.0, std::abs(want.mean()));
      if (std::abs(got.mean() - want.mean()) > 1e-9 * scale) {
        return "month " + std::to_string(ym) + ": mean " +
               std::to_string(got.mean()) + ", want " +
               std::to_string(want.mean());
      }
    }
    return {};
  }

  double useful_fire_share() const override {
    // A PvRecord fire is useful when its SumMonth emit was new.
    const auto fires = pv_->stats().fires.load();
    return fires > 0 ? static_cast<double>(sum_->stats().gamma_inserts.load()) /
                           static_cast<double>(fires)
                     : 0;
  }

  std::int64_t input_records() const override { return records_; }

 private:
  const std::int64_t records_;
  const jstar::csv::Buffer input_;
  const std::vector<jstar::csv::Region> regions_;
  const MonthlyMeans reference_;
  std::mutex months_mu_;
  MonthlyMeans months_;  // filled by sumMonth during the run
  MonthlyMeans answer_;
  jstar::Table<Region>* region_ = nullptr;
  jstar::Table<PvRecord>* pv_ = nullptr;
  jstar::Table<SumMonth>* sum_ = nullptr;
};

}  // namespace

void run_pvwatts(const Options& opts, Result& result, SpanLog& spans) {
  // 20 000 records (28 months, 99.86 % duplicate SumMonth emits), for the
  // same reason as shortest_path's size: the paper-scale 1 M records keep
  // the shape but are far noisier on a shared host.
  const std::int64_t records = 20000;
  PvWatts program(records, opts.seed);
  result.detail("input", json::Object{{"records", records},
                                      {"regions", kRegions}});
  run_batch(opts, program, result, spans);
}

}  // namespace e2e
