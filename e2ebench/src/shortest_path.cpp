// shortest_path: the Fig 5 Dijkstra program (§6.5).  The Delta tree is the
// priority queue, ordered by distance; Estimate is -noGamma, Done.vertex
// is the primary key and Done lives in a striped hash store under the
// parallel strategy, all as in src/apps/dijkstra.  The program is written
// out here rather than called through shortest_paths_jstar(), because the
// traced pass must drive the Engine itself.
//
// Why this workload: Delta-tree, emit and per-tuple costs dominate, with
// tiny rule bodies and no CSV parsing, scans or retention.
#include <string>

#include "apps/dijkstra/dijkstra.h"
#include "batch.h"

namespace e2e {

namespace {

using jstar::apps::dijkstra::Graph;

struct Estimate {
  std::int32_t vertex;
  std::int64_t distance;
  auto operator<=>(const Estimate&) const = default;
};

struct Done {
  std::int32_t vertex;
  std::int64_t distance;
  auto operator<=>(const Done&) const = default;
};

struct DoneHash {
  std::size_t operator()(const Done& d) const {
    return jstar::hash_fields(d.vertex, d.distance);
  }
};

class ShortestPath final : public BatchProgram {
 public:
  ShortestPath(std::int32_t vertices, std::uint64_t seed)
      : graph_(jstar::apps::dijkstra::random_graph(
            vertices, 2 * static_cast<std::int64_t>(vertices), seed)),
        reference_(jstar::apps::dijkstra::shortest_paths_baseline(graph_)) {}

  void hints(jstar::EngineOptions& opts) const override {
    opts.no_gamma.insert("Estimate");
  }

  void declare(jstar::Engine& eng, RuleClocks*) override {
    auto& est = eng.table(jstar::TableDecl<Estimate>("Estimate")
                              .orderby_lit("Int")
                              .orderby_seq("distance", &Estimate::distance)
                              .orderby_lit("Estimate")
                              .hash([](const Estimate& e) {
                                return jstar::hash_fields(e.vertex, e.distance);
                              }));
    auto& done = eng.table(
        jstar::TableDecl<Done>("Done")
            .orderby_lit("Int")
            .orderby_seq("distance", &Done::distance)
            .orderby_lit("Done")
            .hash(DoneHash{})
            .primary_key(&Done::vertex)
            .store_factory(
                [](bool parallel) -> std::unique_ptr<jstar::GammaStore<Done>> {
                  if (parallel) {
                    return std::make_unique<
                        jstar::StripedHashStore<Done, DoneHash>>(64);
                  }
                  return std::make_unique<jstar::HashSetStore<Done, DoneHash>>();
                }));
    eng.order({"Estimate", "Done"});
    // Fig 5: foreach (Estimate e) settle e.vertex unless it is done, then
    // relax its arcs.  The per-arc probes are too short to time; the
    // engine's query and pk-probe counters count them.
    eng.rule(est, "settle",
             [&est, &done, &g = graph_](jstar::RuleCtx& ctx, const Estimate& e) {
               if (!done.none(jstar::query::eq(&Done::vertex, e.vertex))) return;
               done.put(ctx, Done{e.vertex, e.distance});
               for (const Graph::Arc& arc : g.arcs(e.vertex)) {
                 if (!done.get_unique(arc.to).has_value()) {
                   est.put(ctx, Estimate{arc.to, e.distance + arc.weight});
                 }
               }
             });
    estimate_ = &est;
    done_ = &done;
  }

  void initial_puts(jstar::Engine& eng) override {
    eng.put(*estimate_, Estimate{0, 0});
  }

  void read_answer() override {
    answer_.assign(reference_.size(), -1);
    done_->scan([this](const Done& d) {
      answer_[static_cast<std::size_t>(d.vertex)] = d.distance;
    });
  }

  std::string check_answer() const override {
    std::size_t wrong = 0;
    std::size_t first = 0;
    for (std::size_t v = 0; v < reference_.size(); ++v) {
      if (answer_[v] != reference_[v] && wrong++ == 0) first = v;
    }
    if (wrong == 0) return {};
    return std::to_string(wrong) + " of " + std::to_string(reference_.size()) +
           " distances differ from the binary-heap baseline (vertex " +
           std::to_string(first) + ": " + std::to_string(answer_[first]) +
           ", want " + std::to_string(reference_[first]) + ")";
  }

  double useful_fire_share() const override {
    const auto fires = estimate_->stats().fires.load();
    return fires > 0 ? static_cast<double>(done_->stats().gamma_inserts.load()) /
                           static_cast<double>(fires)
                     : 0;
  }

  std::int64_t input_records() const override { return graph_.edge_count(); }

 private:
  const Graph graph_;
  const jstar::apps::dijkstra::Distances reference_;
  jstar::apps::dijkstra::Distances answer_;
  jstar::Table<Estimate>* estimate_ = nullptr;
  jstar::Table<Done>* done_ = nullptr;
};

}  // namespace

void run_shortest_path(const Options& opts, Result& result, SpanLog& spans) {
  // V = 2000 vertices and 2V edges: ~70 batches up to ~300 tuples wide,
  // ~6000 Delta tuples.  The paper-scale V = 200 000 has the same shape
  // (118 batches up to 28 875 wide), but its hot structures are the size
  // of the last-level cache, where other tenants of a shared host move
  // run times by 15-30 %; at this size they stay in the core's own caches.
  const std::int32_t vertices = 2000;
  ShortestPath program(vertices, opts.seed);
  result.detail("input", json::Object{{"vertices", vertices},
                                      {"edges", program.input_records()}});
  run_batch(opts, program, result, spans);
}

}  // namespace e2e
