#include "api/database.h"

#include "common/error.h"
#include "common/strings.h"
#include "obs/obs.h"
#include "plan/builder.h"
#include "plan/printer.h"
#include "plan/prune.h"
#include "sql/parser.h"
#include "translator/correlation.h"
#include "translator/lowering.h"
#include "translator/ysmart_translator.h"

namespace ysmart {

Database::Database(ClusterConfig cfg)
    : dfs_(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication),
      engine_(std::make_unique<Engine>(dfs_, cfg)) {}

Database::Database(ClusterConfig cfg, ThreadPool* pool)
    : dfs_(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication),
      engine_(std::make_unique<Engine>(dfs_, cfg, pool)) {}

void Database::create_table(const std::string& name,
                            std::shared_ptr<const Table> data) {
  check(data != nullptr, "create_table: null data");
  catalog_.register_table(name, data->schema());
  stats_.put(name, StatsCatalog::estimate(*data));
  tables_[to_lower(name)] = data;
  dfs_.write(LoweringContext::table_path(to_lower(name)), data);
}

PlanPtr Database::plan(const std::string& sql) const {
  return plan_query(sql, catalog_);
}

TranslatedQuery Database::translate_query(const std::string& sql,
                                          const TranslatorProfile& profile) {
  // Translation runs on the orchestrating thread; one TaskClock over the
  // whole function attributes its host CPU and allocations.
  obs::PhaseScope translate_phase(obs_, "translate:" + profile.name, "translate",
                                  "translate:" + profile.name, "translate");
  obs::TaskClock translate_tc(translate_phase.agg());
  PlanPtr p;
  {
    obs::ScopedSpan parse_span(obs_, "parse+plan", "translate");
    p = plan(sql);
  }
  const std::string scratch =
      "/scratch/" + profile.name + "/run" + std::to_string(run_counter_++);
  TranslatedQuery q = translate(p, profile, scratch, &stats_, obs_);
  obs::observe_translation(obs_, translate_phase.id(), profile.name,
                           q.jobs.size());
  return q;
}

std::string Database::explain(const std::string& sql,
                              const TranslatorProfile& profile) {
  PlanPtr p = plan(sql);
  std::string out = "== plan ==\n" + print_plan(p);
  prune_plan(p);
  CorrelationAnalysis ca(p);
  out += "== correlations ==\n" + ca.report();
  const std::string scratch =
      "/scratch/" + profile.name + "/explain" + std::to_string(run_counter_++);
  TranslatedQuery q = translate(p, profile, scratch, &stats_);
  out += "== jobs (" + profile.name + ") ==\n" + q.describe();
  return out;
}

QueryRunResult Database::run(const std::string& sql,
                             const TranslatorProfile& profile) {
  obs::ScopedSpan query_span(obs_, "query:" + profile.name, "query");
  obs::QueryRecord rec{sql, profile.name, query_span.id()};
  obs::observe(obs_, obs::QueryPoint::Start, rec);
  QueryRunResult r;
  try {
    const TranslatedQuery q = translate_query(sql, profile);
    rec.jobs = q.jobs.size();
    if (obs_)
      rec.prediction = obs::predict_query(q, profile, stats_, dfs_,
                                          engine_->cluster(), sql);
    obs::observe(obs_, obs::QueryPoint::Translated, rec);
    r = run_translated(q, *engine_, profile);
  } catch (const std::exception& e) {
    // Publish the query on every exit, so no surface is left half-open.
    rec.error = e.what();
    obs::observe(obs_, obs::QueryPoint::Done, rec);
    throw;
  }
  rec.metrics = &r.metrics;
  obs::observe(obs_, obs::QueryPoint::Done, rec);
  return r;
}

TableSource Database::table_source() const {
  return [this](const std::string& name) -> std::shared_ptr<const Table> {
    auto it = tables_.find(to_lower(name));
    return it == tables_.end() ? nullptr : it->second;
  };
}

Table Database::run_reference(const std::string& sql) const {
  return execute_plan_ref(plan(sql), table_source());
}

DbmsRunResult Database::run_dbms(const std::string& sql,
                                 DbmsCostConfig cfg) const {
  return execute_plan_dbms(plan(sql), table_source(), cfg);
}

void Database::reconfigure_cluster(ClusterConfig cfg) {
  engine_.reset();
  dfs_ = Dfs(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication);
  engine_ = std::make_unique<Engine>(dfs_, std::move(cfg));
  engine_->set_obs(obs_);
  for (const auto& [name, data] : tables_)
    dfs_.write(LoweringContext::table_path(name), data);
}

void Database::set_observer(obs::ObsContext* obs) {
  obs_ = obs;
  engine_->set_obs(obs);
}

}  // namespace ysmart
