// ysmart::Database — the library's public facade.
//
// Owns a simulated cluster (DFS + MapReduce engine), a catalog, and the
// translators. Typical use:
//
//   ysmart::Database db(ysmart::ClusterConfig::small_local(100));
//   db.create_table("clicks", ysmart::generate_clicks({}));
//   auto ys = db.run(sql, ysmart::TranslatorProfile::ysmart());
//   auto hv = db.run(sql, ysmart::TranslatorProfile::hive());
//   std::cout << ys.metrics.breakdown();
//
// run() genuinely executes the translated MapReduce jobs over the stored
// data; metrics carry measured bytes/records and simulated phase times.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "mr/engine.h"
#include "plan/plan.h"
#include "refdb/refdb.h"
#include "stats/stats.h"
#include "storage/catalog.h"
#include "translator/dag_executor.h"
#include "translator/jobspec.h"

namespace ysmart {

namespace obs {
struct ObsContext;
}

class Database {
 public:
  explicit Database(ClusterConfig cfg);

  /// As above, but simulate on an explicit thread pool instead of the
  /// process-wide shared one (tests use this to pin the host-parallelism
  /// degree; pool size never affects simulated results).
  Database(ClusterConfig cfg, ThreadPool* pool);

  /// Register `data` as base table `name` (stored into the DFS).
  void create_table(const std::string& name, std::shared_ptr<const Table> data);

  /// Parse + plan (fresh tree; safe to mutate).
  PlanPtr plan(const std::string& sql) const;

  /// Translate without executing.
  TranslatedQuery translate_query(const std::string& sql,
                                  const TranslatorProfile& profile);

  /// Plan tree + correlation report + job list, as text.
  std::string explain(const std::string& sql, const TranslatorProfile& profile);

  /// Translate and execute on the simulated cluster.
  QueryRunResult run(const std::string& sql, const TranslatorProfile& profile);

  /// Execute on the single-node reference engine (correctness oracle).
  Table run_reference(const std::string& sql) const;

  /// Execute as the "ideal parallel DBMS" (Section VII-D comparison).
  DbmsRunResult run_dbms(const std::string& sql, DbmsCostConfig cfg) const;

  const Catalog& catalog() const { return catalog_; }
  const StatsCatalog& stats() const { return stats_; }
  Engine& engine() { return *engine_; }
  Dfs& dfs() { return dfs_; }
  const ClusterConfig& cluster() const { return engine_->cluster(); }

  /// Replace the engine (e.g. to re-run on a different cluster preset
  /// while keeping the loaded tables). Table data is re-registered and
  /// an attached observer carries over to the new engine.
  void reconfigure_cluster(ClusterConfig cfg);

  /// Attach (or detach with null) an observability context, non-owning.
  /// While attached, run()/translate_query() record spans, counters and
  /// run()'s plan prediction into it; detached (the default) everything
  /// is skipped. Observation never alters results or simulated metrics.
  void set_observer(obs::ObsContext* obs);
  obs::ObsContext* observer() const { return obs_; }

 private:
  TableSource table_source() const;

  Dfs dfs_;
  std::unique_ptr<Engine> engine_;
  Catalog catalog_;
  StatsCatalog stats_;
  std::map<std::string, std::shared_ptr<const Table>> tables_;
  int run_counter_ = 0;
  obs::ObsContext* obs_ = nullptr;
};

}  // namespace ysmart
