// Tests for the query doctor (src/obs/analyzer.h) and its inputs: the
// Space-Saving heavy-hitter sketch, the task sample store, skew and
// hot-key detection on an engine-level job, and — the load-bearing
// guarantee — that the analyzer's critical path, read from the
// executor's wave records, equals the DAG executor's wall_time_s
// bit-for-bit.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/database.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "data/queries.h"
#include "data/tpch_gen.h"
#include "mr/engine.h"
#include "obs/analyzer.h"
#include "obs/heavy_hitters.h"
#include "obs/obs.h"
#include "storage/dfs.h"

namespace ysmart {
namespace {

// ---- Space-Saving sketch ----

TEST(SpaceSaving, ExactWhileUnderCapacity) {
  obs::SpaceSaving s(8);
  s.offer("a", 5);
  s.offer("b", 3);
  s.offer("a", 2);
  s.offer("c");
  EXPECT_EQ(s.total_weight(), 11u);
  const auto top = s.top(8);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, "a");
  EXPECT_EQ(top[0].count, 7u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, "b");
  EXPECT_EQ(top[1].count, 3u);
  EXPECT_EQ(top[2].key, "c");
  EXPECT_EQ(top[2].count, 1u);
}

TEST(SpaceSaving, EvictionKeepsOverestimateGuarantee) {
  // Capacity 2; a genuinely heavy key must survive eviction pressure and
  // every reported count must bracket the true weight:
  //   count - error <= true weight <= count.
  obs::SpaceSaving s(2);
  for (int i = 0; i < 100; ++i) s.offer("heavy");
  for (int i = 0; i < 30; ++i) s.offer("noise" + std::to_string(i));
  EXPECT_EQ(s.total_weight(), 130u);
  const auto top = s.top(2);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].key, "heavy");
  EXPECT_GE(top[0].count, 100u);
  EXPECT_LE(top[0].count - top[0].error, 100u);
}

TEST(SpaceSaving, MergeAccumulatesTotalsAndKeepsHeavyKeys) {
  obs::SpaceSaving a(4), b(4);
  a.offer("x", 50);
  a.offer("y", 10);
  b.offer("x", 25);
  b.offer("z", 40);
  a.merge(b);
  EXPECT_EQ(a.total_weight(), 125u);
  const auto top = a.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, "x");
  EXPECT_EQ(top[0].count, 75u);
}

TEST(SpaceSaving, TopBreaksCountTiesByAscendingKey) {
  obs::SpaceSaving s(8);
  s.offer("delta", 2);
  s.offer("alpha", 2);
  s.offer("carol", 2);
  const auto top = s.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, "alpha");
  EXPECT_EQ(top[1].key, "carol");
  EXPECT_EQ(top[2].key, "delta");
}

// ---- task sample store ----

TEST(TaskSampleStore, ImplicitGroupAndWaveStamping) {
  obs::TaskSampleStore store;
  obs::JobTaskSamples j1;
  j1.job_name = "standalone";
  store.record_job(std::move(j1));  // no begin_query: implicit group
  EXPECT_EQ(store.query_count(), 1u);
  EXPECT_EQ(store.last_query().jobs.at(0).wave, -1);

  store.begin_query();
  store.set_current_wave(0);
  obs::JobTaskSamples j2;
  j2.job_name = "wave0";
  store.record_job(std::move(j2));
  store.set_current_wave(1);
  obs::JobTaskSamples j3;
  j3.job_name = "wave1";
  store.record_job(std::move(j3));
  store.record_wave({1, 12.5});
  EXPECT_EQ(store.query_count(), 2u);
  const auto q = store.last_query();
  ASSERT_EQ(q.jobs.size(), 2u);
  EXPECT_EQ(q.jobs[0].wave, 0);
  EXPECT_EQ(q.jobs[1].wave, 1);
  ASSERT_EQ(q.waves.size(), 1u);
  EXPECT_EQ(q.waves[0].index, 1);
  EXPECT_DOUBLE_EQ(q.waves[0].elapsed_s, 12.5);
  EXPECT_EQ(store.total_jobs(), 3u);

  // A standalone run after the query is done opens a group of its own
  // with wave -1, and the next standalone run joins it.
  store.end_query();
  obs::JobTaskSamples j4;
  j4.job_name = "after-query";
  store.record_job(std::move(j4));
  EXPECT_EQ(store.query_count(), 3u);
  EXPECT_EQ(store.query(1).jobs.size(), 2u);
  obs::JobTaskSamples j5;
  j5.job_name = "after-query-2";
  store.record_job(std::move(j5));
  EXPECT_EQ(store.query_count(), 3u);
  const auto standalone = store.last_query();
  ASSERT_EQ(standalone.jobs.size(), 2u);
  EXPECT_EQ(standalone.jobs[0].wave, -1);
  EXPECT_EQ(standalone.jobs[1].wave, -1);
  EXPECT_TRUE(standalone.waves.empty());
}

// ---- engine-level skew: one hot key dominates a reduce partition ----

/// Counts the records of each key of /in's first column into `out_path`.
MRJobSpec counting_spec(const std::string& name, const std::string& out_path) {
  MRJobSpec spec;
  spec.name = name;
  spec.inputs = {{"/in", 0}};
  Schema out;
  out.add("k", ValueType::Int);
  out.add("n", ValueType::Int);
  spec.outputs = {{out_path, out}};
  spec.key_column_names = {"k"};
  struct M final : Mapper {
    void map(const Row& r, int, MapEmitter& e) override {
      e.emit(Row{r[0]}, Row{Value{1}});
    }
  };
  struct R final : Reducer {
    void reduce(const Row& k, std::span<const KeyValue> v,
                ReduceEmitter& e) override {
      e.emit(Row{k[0], Value{static_cast<std::int64_t>(v.size())}});
    }
  };
  spec.make_mapper = [] { return std::make_unique<M>(); };
  spec.make_reducer = [] { return std::make_unique<R>(); };
  return spec;
}

TEST(AnalyzerSkew, HotKeyIsTopHeavyHitterAndDiagnosed) {
  // ~31% of all records share one key; the rest spread over 97 keys.
  Schema ks;
  ks.add("k", ValueType::Int);
  auto data = std::make_shared<Table>(ks);
  for (int i = 0; i < 2000; ++i) data->append({Value{i % 97}});
  for (int i = 0; i < 900; ++i) data->append({Value{424242}});

  auto cfg = ClusterConfig::ec2(8, 1.0);
  Dfs dfs(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication);
  dfs.write("/in", data);
  Engine engine(dfs, cfg);
  obs::ObsContext obs;
  engine.set_obs(&obs);

  const JobMetrics m = engine.run(counting_spec("skewed-count", "/out"));
  ASSERT_FALSE(m.failed);

  ASSERT_EQ(obs.samples.query_count(), 1u);
  const obs::QueryTaskSamples q = obs.samples.last_query();
  ASSERT_EQ(q.jobs.size(), 1u);
  const obs::JobTaskSamples& js = q.jobs[0];
  EXPECT_EQ(js.wave, -1);  // standalone engine run: no DAG executor

  // The hot key tops the merged sketch, with the overestimate bracket
  // around its true weight of 900 records.
  const auto top = js.hot_keys.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, "(424242)");
  EXPECT_GE(top[0].count, 900u);
  EXPECT_LE(top[0].count - top[0].error, 900u);
  EXPECT_EQ(js.hot_keys.total_weight(), 2900u);

  // Key groups across partitions cover every distinct key exactly once.
  std::uint64_t groups = 0, records = 0;
  for (const auto& t : js.reduce_tasks) {
    groups += t.key_groups;
    records += t.input_records;
  }
  EXPECT_EQ(groups, 98u);
  EXPECT_EQ(records, 2900u);

  const obs::AnalyzerReport rep = analyze_query(q);
  ASSERT_EQ(rep.jobs.size(), 1u);
  EXPECT_TRUE(rep.jobs[0].on_critical_path);
  EXPECT_EQ(rep.critical_path_s, rep.serial_total_s);
  ASSERT_FALSE(rep.jobs[0].hot_keys.empty());
  EXPECT_EQ(rep.jobs[0].hot_keys[0].key, "(424242)");
  bool diagnosed = false;
  for (const auto& d : rep.diagnosis)
    diagnosed |= d.find("hot key 'k=(424242)'") != std::string::npos;
  EXPECT_TRUE(diagnosed) << rep.text();
  EXPECT_NE(rep.text().find("hot keys:"), std::string::npos);
}

// ---- critical path vs the DAG executor ----

std::shared_ptr<Table> small_clicks() {
  Schema cl;
  cl.add("uid", ValueType::Int);
  cl.add("page_id", ValueType::Int);
  cl.add("cid", ValueType::Int);
  cl.add("ts", ValueType::Int);
  auto t = std::make_shared<Table>(cl);
  for (int i = 0; i < 500; ++i)
    t->append({Value{i % 11}, Value{i % 17}, Value{i % 5}, Value{i}});
  return t;
}

TEST(AnalyzerCriticalPath, SerialSubmissionEqualsWallTimeExactly) {
  Database db(ClusterConfig::small_local(50));
  db.create_table("clicks", small_clicks());
  obs::ObsContext obs;
  db.set_observer(&obs);
  // Hive profile: one-op-per-job, the longest serial DAG available.
  const auto run = db.run(queries::qcsa().sql, TranslatorProfile::hive());
  ASSERT_FALSE(run.metrics.failed());
  ASSERT_GT(run.metrics.job_count(), 1);

  const obs::QueryTaskSamples q = obs.samples.last_query();
  // One record per wave, summing to the executor's wall time.
  ASSERT_EQ(q.waves.size(), q.jobs.size());
  double recorded = 0;
  for (const auto& w : q.waves) recorded += w.elapsed_s;
  EXPECT_EQ(recorded, run.metrics.wall_time_s);
  const obs::AnalyzerReport rep = analyze_query(q);
  ASSERT_EQ(rep.jobs.size(), static_cast<std::size_t>(run.metrics.job_count()));
  // Bit-exact double equality, not approximate: the analyzer sums the
  // executor's own wave records in the executor's order.
  EXPECT_EQ(rep.critical_path_s, run.metrics.wall_time_s);
  // Serial submission: one job per wave, so the critical path is the
  // serial sum and every job is critical with zero slack.
  EXPECT_EQ(rep.critical_path_s, rep.serial_total_s);
  EXPECT_EQ(rep.waves.size(), rep.jobs.size());
  for (const auto& j : rep.jobs) {
    EXPECT_TRUE(j.on_critical_path);
    EXPECT_DOUBLE_EQ(j.slack_s, 0.0);
  }
}

TEST(AnalyzerCriticalPath, ConcurrentSubmissionMatchesWallAndBoundsSum) {
  // Q17's one-op plan has two independent base-table branches (AGG over
  // lineitem, lineitem-x-part JOIN), so concurrent submission genuinely
  // overlaps jobs — unlike qcsa's strictly linear hive chain.
  Database db(ClusterConfig::small_local(50));
  TpchConfig tc;
  tc.orders = 200;
  tc.parts = 60;
  tc.customers = 40;
  tc.suppliers = 10;
  auto tpch = generate_tpch(tc);
  db.create_table("lineitem", tpch.lineitem);
  db.create_table("part", tpch.part);
  obs::ObsContext obs;
  db.set_observer(&obs);
  TranslatorProfile profile = TranslatorProfile::hive();
  profile.concurrent_job_submission = true;
  const auto run = db.run(queries::q17().sql, profile);
  ASSERT_FALSE(run.metrics.failed());

  const obs::AnalyzerReport rep = analyze_query(obs.samples.last_query());
  EXPECT_EQ(rep.critical_path_s, run.metrics.wall_time_s);
  EXPECT_LE(rep.critical_path_s, rep.serial_total_s);
  // Overlapping waves: fewer waves than jobs, and every wave has exactly
  // one critical job with zero slack.
  EXPECT_LT(rep.waves.size(), rep.jobs.size());
  for (const auto& w : rep.waves) {
    ASSERT_GE(w.critical_job, 0);
    const auto& cj = rep.jobs[static_cast<std::size_t>(w.critical_job)];
    EXPECT_TRUE(cj.on_critical_path);
    EXPECT_DOUBLE_EQ(cj.slack_s, 0.0);
    EXPECT_DOUBLE_EQ(cj.total_s, w.elapsed_s);
  }
}

TEST(AnalyzerCriticalPath, StandaloneJobAfterAQueryFormsItsOwnGroup) {
  // One observer sees a query through Database::run and then a job on a
  // standalone engine: the job must not join the query's group.
  ThreadPool pool(2);
  const ClusterConfig cfg = ClusterConfig::small_local(50);
  Database db(cfg, &pool);
  TpchConfig tc;
  tc.orders = 300;
  tc.parts = 60;
  tc.customers = 40;
  tc.suppliers = 50;
  const auto tpch = generate_tpch(tc);
  db.create_table("lineitem", tpch.lineitem);
  db.create_table("orders", tpch.orders);
  db.create_table("supplier", tpch.supplier);
  db.create_table("nation", tpch.nation);
  obs::ObsContext obs;
  db.set_observer(&obs);
  const auto run = db.run(queries::q21().sql, TranslatorProfile::ysmart());
  ASSERT_FALSE(run.metrics.failed());

  Dfs dfs(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication);
  dfs.write("/in", small_clicks());
  Engine engine(dfs, cfg, &pool);
  engine.set_obs(&obs);
  ASSERT_FALSE(engine.run(counting_spec("after-q21", "/out")).failed);

  ASSERT_EQ(obs.samples.query_count(), 2u);
  const obs::QueryTaskSamples q21 = obs.samples.query(0);
  EXPECT_EQ(q21.jobs.size(),
            static_cast<std::size_t>(run.metrics.job_count()));
  EXPECT_EQ(analyze_query(q21).critical_path_s, run.metrics.wall_time_s);
  const obs::QueryTaskSamples standalone = obs.samples.query(1);
  ASSERT_EQ(standalone.jobs.size(), 1u);
  EXPECT_EQ(standalone.jobs[0].wave, -1);
  EXPECT_EQ(analyze_query(standalone).critical_path_s,
            standalone.jobs[0].total_time_s());
}

// ---- the acceptance scenario: TPC-H Q21 under the full translator ----

TEST(AnalyzerQ21, CriticalPathPartitionsTagsAndReportMarkers) {
  Database db(ClusterConfig::small_local(50));
  TpchConfig tc;
  tc.orders = 800;
  tc.parts = 200;
  tc.customers = 150;
  tc.suppliers = 30;
  auto tpch = generate_tpch(tc);
  db.create_table("lineitem", tpch.lineitem);
  db.create_table("orders", tpch.orders);
  db.create_table("supplier", tpch.supplier);
  db.create_table("nation", tpch.nation);
  obs::ObsContext obs;
  db.set_observer(&obs);
  const auto run = db.run(queries::q21().sql, TranslatorProfile::ysmart());
  ASSERT_FALSE(run.metrics.failed());

  const obs::QueryTaskSamples q = obs.samples.last_query();
  const obs::AnalyzerReport rep = analyze_query(q);

  // Serial submission: the critical-path total equals wall_time_s exactly.
  EXPECT_EQ(rep.critical_path_s, run.metrics.wall_time_s);

  // The heaviest reduce partitions are named, with per-tag record counts
  // on the CMF common job that merges several source relations.
  bool found_partitions = false, found_multi_tag = false, found_keys = false;
  for (const auto& j : rep.jobs) {
    if (j.map_only) continue;
    if (!j.top_partitions.empty()) found_partitions = true;
    for (const auto& hp : j.top_partitions) {
      EXPECT_GT(hp.records, 0u);
      EXPECT_GT(hp.key_groups, 0u);
      if (hp.tag_records.size() > 1) found_multi_tag = true;
    }
    if (!j.key_columns.empty()) found_keys = true;
  }
  EXPECT_TRUE(found_partitions);
  EXPECT_TRUE(found_multi_tag)
      << "no reduce partition saw records from more than one source tag";
  EXPECT_TRUE(found_keys);

  // The rendered report carries every section the shell prints.
  const std::string text = rep.text();
  for (const char* marker :
       {"== query doctor ==", "critical path:", "wave 0:",
        "heaviest reduce partitions", "tags [", "diagnosis:"})
    EXPECT_NE(text.find(marker), std::string::npos)
        << "missing marker: " << marker << "\n" << text;

  // The JSON form parses and is deterministic across re-analysis.
  JsonWriter w;
  rep.to_json(w);
  EXPECT_EQ(w.str(), analyze_query(q).json());
  EXPECT_NE(w.str().find("\"critical_path_s\""), std::string::npos);
}

}  // namespace
}  // namespace ysmart
