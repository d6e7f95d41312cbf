#include "viz/runlog.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/json.h"

namespace jstar::viz {

namespace {

std::string orderby_string(const TableBase& t) {
  std::string s = "(";
  bool first = true;
  for (const auto& level : t.orderby_spec()) {
    if (!first) s += ", ";
    first = false;
    switch (level.kind) {
      case OrderByLevel::Kind::Lit: s += level.name; break;
      case OrderByLevel::Kind::Seq: s += "seq " + level.name; break;
      case OrderByLevel::Kind::Par: s += "par " + level.name; break;
    }
  }
  return s + ")";
}

json::Value table_to_json(const TableLog& t) {
  json::Array rules;
  for (const std::string& r : t.rules) rules.emplace_back(r);
  return json::Object{
      {"name", t.name},
      {"orderby", t.orderby},
      {"store", t.store},
      {"no_delta", t.no_delta},
      {"no_gamma", t.no_gamma},
      {"puts", t.puts},
      {"delta_inserts", t.delta_inserts},
      {"delta_dups", t.delta_dups},
      {"gamma_inserts", t.gamma_inserts},
      {"gamma_dups", t.gamma_dups},
      {"gamma_retired", t.gamma_retired},
      {"gamma_passed_through", t.gamma_passed_through},
      {"fires", t.fires},
      {"queries", t.queries},
      {"index_lookups", t.index_lookups},
      {"full_scans", t.full_scans},
      {"pk_probes", t.pk_probes},
      {"range_scans", t.range_scans},
      {"empty_plans", t.empty_plans},
      {"index_retired", t.index_retired},
      {"residual_rows", t.residual_rows},
      {"residual_hits", t.residual_hits},
      {"columnar_kernels", t.columnar_kernels},
      {"columnar_rows", t.columnar_rows},
      {"columnar_selected", t.columnar_selected},
      {"morsel_runs", t.morsel_runs},
      {"morsel_splits", t.morsel_splits},
      {"retracts", t.retracts},
      {"gamma_erased", t.gamma_erased},
      {"retract_debts", t.retract_debts},
      {"annihilated", t.annihilated},
      {"upserts", t.upserts},
      {"upsert_replaced", t.upsert_replaced},
      {"emit_flushes", t.emit_flushes},
      {"emit_buffered", t.emit_buffered},
      {"inline_batches", t.inline_batches},
      {"rules", std::move(rules)},
  };
}

TableLog table_from_json(const json::Value& v) {
  TableLog t;
  t.name = v.at("name").as_string();
  t.orderby = v.at("orderby").as_string();
  t.store = v.at("store").as_string();
  t.no_delta = v.at("no_delta").as_bool();
  t.no_gamma = v.at("no_gamma").as_bool();
  t.puts = v.at("puts").as_int();
  t.delta_inserts = v.at("delta_inserts").as_int();
  t.delta_dups = v.at("delta_dups").as_int();
  t.gamma_inserts = v.at("gamma_inserts").as_int();
  t.gamma_dups = v.at("gamma_dups").as_int();
  t.gamma_retired = v.at("gamma_retired").as_int();
  t.gamma_passed_through = v.at("gamma_passed_through").as_int();
  t.fires = v.at("fires").as_int();
  t.queries = v.at("queries").as_int();
  t.index_lookups = v.at("index_lookups").as_int();
  t.full_scans = v.at("full_scans").as_int();
  t.pk_probes = v.at("pk_probes").as_int();
  t.range_scans = v.at("range_scans").as_int();
  t.empty_plans = v.at("empty_plans").as_int();
  t.index_retired = v.at("index_retired").as_int();
  t.residual_rows = v.at("residual_rows").as_int();
  t.residual_hits = v.at("residual_hits").as_int();
  t.columnar_kernels = v.at("columnar_kernels").as_int();
  t.columnar_rows = v.at("columnar_rows").as_int();
  t.columnar_selected = v.at("columnar_selected").as_int();
  t.morsel_runs = v.at("morsel_runs").as_int();
  t.morsel_splits = v.at("morsel_splits").as_int();
  t.retracts = v.at("retracts").as_int();
  t.gamma_erased = v.at("gamma_erased").as_int();
  t.retract_debts = v.at("retract_debts").as_int();
  t.annihilated = v.at("annihilated").as_int();
  t.upserts = v.at("upserts").as_int();
  t.upsert_replaced = v.at("upsert_replaced").as_int();
  t.emit_flushes = v.at("emit_flushes").as_int();
  t.emit_buffered = v.at("emit_buffered").as_int();
  t.inline_batches = v.at("inline_batches").as_int();
  for (const json::Value& r : v.at("rules").as_array()) {
    t.rules.push_back(r.as_string());
  }
  return t;
}

}  // namespace

RunLog capture(const Engine& engine, const std::string& program,
               const RunReport& report) {
  RunLog log;
  log.program = program;
  log.batches = report.batches;
  log.tuples = report.tuples;
  log.seconds = report.seconds;
  const auto tables = engine.all_tables();
  for (const TableBase* t : tables) {
    const TableStats& s = t->stats();
    TableLog tl;
    tl.name = t->name();
    tl.orderby = orderby_string(*t);
    tl.store = t->store_describe();
    tl.no_delta = t->no_delta();
    tl.no_gamma = t->no_gamma();
    tl.puts = s.puts.load();
    tl.delta_inserts = s.delta_inserts.load();
    tl.delta_dups = s.delta_dups.load();
    tl.gamma_inserts = s.gamma_inserts.load();
    tl.gamma_dups = s.gamma_dups.load();
    tl.gamma_retired = s.gamma_retired.load();
    tl.gamma_passed_through = s.gamma_passed_through.load();
    tl.fires = s.fires.load();
    tl.queries = s.queries.load();
    tl.index_lookups = s.index_lookups.load();
    tl.full_scans = s.full_scans.load();
    tl.pk_probes = s.pk_probes.load();
    tl.range_scans = s.range_scans.load();
    tl.empty_plans = s.empty_plans.load();
    tl.index_retired = s.index_retired.load();
    tl.residual_rows = s.residual_rows.load();
    tl.residual_hits = s.residual_hits.load();
    tl.columnar_kernels = s.columnar_kernels.load();
    tl.columnar_rows = s.columnar_rows.load();
    tl.columnar_selected = s.columnar_selected.load();
    tl.morsel_runs = s.morsel_runs.load();
    tl.morsel_splits = s.morsel_splits.load();
    tl.retracts = s.retracts.load();
    tl.gamma_erased = s.gamma_erased.load();
    tl.retract_debts = s.retract_debts.load();
    tl.annihilated = s.annihilated.load();
    tl.upserts = s.upserts.load();
    tl.upsert_replaced = s.upsert_replaced.load();
    tl.emit_flushes = s.emit_flushes.load();
    tl.emit_buffered = s.emit_buffered.load();
    tl.inline_batches = s.inline_batches.load();
    tl.rules = t->rule_names();
    log.tables.push_back(std::move(tl));
  }
  const EdgeMatrix& edges = engine.edges();
  for (const TableBase* from : tables) {
    for (const TableBase* to : tables) {
      const std::int64_t n = edges.count(from->id(), to->id());
      if (n > 0) log.edges.push_back({from->name(), to->name(), n});
    }
  }
  return log;
}

std::string to_json(const RunLog& log) {
  json::Array tables;
  for (const TableLog& t : log.tables) tables.push_back(table_to_json(t));
  json::Array edges;
  for (const EdgeLog& e : log.edges) {
    edges.push_back(json::Object{
        {"from", e.from}, {"to", e.to}, {"count", e.count}});
  }
  const json::Value root = json::Object{
      {"program", log.program},
      {"batches", log.batches},
      {"tuples", log.tuples},
      {"seconds", log.seconds},
      {"tables", std::move(tables)},
      {"edges", std::move(edges)},
  };
  return json::write(root);
}

RunLog from_json(const std::string& text) {
  const json::Value root = json::parse(text);
  RunLog log;
  log.program = root.at("program").as_string();
  log.batches = root.at("batches").as_int();
  log.tuples = root.at("tuples").as_int();
  log.seconds = root.at("seconds").as_number();
  for (const json::Value& t : root.at("tables").as_array()) {
    log.tables.push_back(table_from_json(t));
  }
  for (const json::Value& e : root.at("edges").as_array()) {
    log.edges.push_back({e.at("from").as_string(), e.at("to").as_string(),
                         e.at("count").as_int()});
  }
  return log;
}

void save(const RunLog& log, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write run log: " + path);
  out << to_json(log) << "\n";
}

RunLog load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read run log: " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return from_json(ss.str());
}

std::string dot_graph(const RunLog& log) {
  // Hot-table threshold: top decile by fires (at least the max).
  std::int64_t hot = 0;
  for (const TableLog& t : log.tables) hot = std::max(hot, t.fires);
  hot = hot * 9 / 10;

  std::ostringstream os;
  os << "digraph \"" << log.program << "\" {\n"
     << "  rankdir=LR;\n"
     << "  label=\"" << log.program << ": " << log.batches << " batches, "
     << log.tuples << " tuples\";\n"
     << "  node [shape=record, fontsize=10];\n";
  for (std::size_t i = 0; i < log.tables.size(); ++i) {
    const TableLog& t = log.tables[i];
    os << "  t" << i << " [label=\"{" << t.name << " " << t.orderby
       << "|puts=" << t.puts << " fires=" << t.fires
       << "\\lgamma=" << t.gamma_inserts << " dup=" << t.gamma_dups;
    // -noGamma tables store nothing; show their throughput instead.
    if (t.no_gamma) os << " passed=" << t.gamma_passed_through;
    if (!t.store.empty()) os << " [" << t.store << "]";
    os << "\\lqueries=" << t.queries << " idx=" << t.index_lookups
       << " scan=" << t.full_scans << "\\l";
    // Planner access paths, shown only when some query routed off the
    // scan path (keeps planner-free programs' graphs unchanged).
    // residual_rows covers index probes, which have no counter of their
    // own in this sum (index_lookups predates the planner).
    if (t.pk_probes + t.range_scans + t.empty_plans + t.index_retired +
            t.residual_rows > 0) {
      char rate[32];
      std::snprintf(rate, sizeof(rate), "%.2f", t.residual_rate());
      os << "pk=" << t.pk_probes << " range=" << t.range_scans
         << " empty=" << t.empty_plans << " swept=" << t.index_retired
         << " sel=" << rate << "\\l";
    }
    // Retraction/upsert churn, shown only for tables that saw some.
    if (t.retracts + t.upserts > 0) {
      os << "retracts=" << t.retracts << " erased=" << t.gamma_erased
         << " debts=" << t.retract_debts << " upserts=" << t.upserts
         << " replaced=" << t.upsert_replaced << "\\l";
    }
    // Columnar kernel pushdown, shown only when a kernel actually ran.
    if (t.columnar_kernels > 0) {
      char ksel[32];
      std::snprintf(ksel, sizeof(ksel), "%.2f", t.kernel_selectivity());
      os << "kernels=" << t.columnar_kernels << " rows=" << t.columnar_rows
         << " ksel=" << ksel << "\\l";
    }
    // Morsel-parallel execution, shown only when a scan actually split.
    if (t.morsel_runs > 0) {
      os << "morsels=" << t.morsel_splits << " over " << t.morsel_runs
         << " runs\\l";
    }
    // Batch-at-a-time emission, shown only for tables that buffered or
    // fired inline at least once (tables fed only by initial puts or
    // -noDelta delivery keep their plain labels).
    if (t.emit_buffered + t.inline_batches > 0) {
      os << "emitted=" << t.emit_buffered << " flushes=" << t.emit_flushes
         << " inline=" << t.inline_batches << "\\l";
    }
    os << "}\"";
    if (t.fires > 0 && t.fires >= hot) os << ", color=red, penwidth=2";
    if (t.no_delta || t.no_gamma) os << ", style=dashed";
    os << "];\n";
  }
  auto index_of = [&](const std::string& name) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < log.tables.size(); ++i) {
      if (log.tables[i].name == name) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };
  for (const EdgeLog& e : log.edges) {
    const auto from = index_of(e.from);
    const auto to = index_of(e.to);
    if (from < 0 || to < 0) continue;
    os << "  t" << from << " -> t" << to << " [label=\"" << e.count
       << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace jstar::viz
