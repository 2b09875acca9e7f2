// Tests for the observability subsystem (src/obs) and its supporting
// pieces: the JSON writer, env parsing, span tracer, task samples,
// and — the load-bearing guarantees — that observation never perturbs
// simulated results and that the simulated-axis trace is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "api/database.h"
#include "common/env.h"
#include "common/error.h"
#include "common/json.h"
#include "data/queries.h"
#include "data/tpch_gen.h"
#include "obs/analyzer.h"
#include "obs/obs.h"
#include "storage/table.h"

namespace ysmart {
namespace {

// ---- a strict mini JSON parser: validates syntax, keeps nothing ----
// Used to prove the emitted traces/snapshots are real JSON without
// depending on an external parser.
class MiniJson {
 public:
  explicit MiniJson(std::string_view s) : s_(s) {}
  bool parse() {
    skip_ws();
    return value() && (skip_ws(), pos_ == s_.size());
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!peek(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!peek(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!peek(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) return false;
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char c = s_[pos_];
        if (c == 'u') {
          for (int i = 0; i < 4; ++i)
            if (++pos_ >= s_.size() || !std::isxdigit(s_[pos_])) return false;
        } else if (!strchr("\"\\/bfnrt", c)) {
          return false;
        }
      }
      ++pos_;
    }
    return peek('"');
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek('-')) {}
    while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    if (peek('.'))
      while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(s_[pos_])) ++pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

// ---- fixture data: a tiny clicks table, enough for Q-CSA's job DAG ----

std::shared_ptr<Table> tiny_clicks() {
  Schema cl;
  cl.add("uid", ValueType::Int);
  cl.add("page_id", ValueType::Int);
  cl.add("cid", ValueType::Int);
  cl.add("ts", ValueType::Int);
  auto t = std::make_shared<Table>(cl);
  for (int i = 0; i < 400; ++i)
    t->append({Value{i % 7}, Value{i % 13}, Value{i % 5}, Value{i}});
  return t;
}

std::unique_ptr<Database> fresh_db() {
  auto db = std::make_unique<Database>(ClusterConfig::small_local(50));
  db->create_table("clicks", tiny_clicks());
  return db;
}

// ---- JsonWriter ----

TEST(JsonWriter, NestingAndCommas) {
  JsonWriter w;
  w.begin_object();
  w.kv("a", 1);
  w.key("b").begin_array().value(true).value("x").value(2.5).end_array();
  w.key("c").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[true,"x",2.5],"c":{}})");
  EXPECT_TRUE(MiniJson(w.str()).parse());
}

TEST(JsonWriter, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te\x01"), "a\\\"b\\\\c\\nd\\te\\u0001");
  JsonWriter w;
  w.begin_object().kv("k\n", "v\"").end_object();
  EXPECT_TRUE(MiniJson(w.str()).parse());
}

TEST(JsonWriter, DoublesRoundTrip) {
  JsonWriter w;
  w.begin_array().value(1.0 / 3.0).value(1e-300).value(0.0).end_array();
  EXPECT_TRUE(MiniJson(w.str()).parse());
  EXPECT_NE(w.str().find("0.33333333333333331"), std::string::npos);
}

// ---- env parsing ----

TEST(EnvParsing, PositiveIntAcceptsAndRejects) {
  EXPECT_EQ(parse_positive_int("8"), 8);
  EXPECT_EQ(parse_positive_int("  16 "), 16);
  EXPECT_EQ(parse_positive_int("0"), std::nullopt);
  EXPECT_EQ(parse_positive_int("-3"), std::nullopt);
  EXPECT_EQ(parse_positive_int("four"), std::nullopt);
  EXPECT_EQ(parse_positive_int("8x"), std::nullopt);
  EXPECT_EQ(parse_positive_int(""), std::nullopt);
  EXPECT_EQ(parse_positive_int("99999999999999999999"), std::nullopt);
}

TEST(EnvParsing, EnvPositiveIntFallsBackOnGarbage) {
  ::setenv("YSMART_TEST_ENV", "garbage", 1);
  EXPECT_EQ(env_positive_int("YSMART_TEST_ENV"), std::nullopt);
  ::setenv("YSMART_TEST_ENV", "12", 1);
  EXPECT_EQ(env_positive_int("YSMART_TEST_ENV"), 12);
  ::unsetenv("YSMART_TEST_ENV");
  EXPECT_EQ(env_positive_int("YSMART_TEST_ENV"), std::nullopt);
}

TEST(EnvParsing, EnvNonempty) {
  ::setenv("YSMART_TEST_ENV", "/tmp/x.json", 1);
  EXPECT_EQ(env_nonempty("YSMART_TEST_ENV"), "/tmp/x.json");
  ::setenv("YSMART_TEST_ENV", "", 1);
  EXPECT_EQ(env_nonempty("YSMART_TEST_ENV"), std::nullopt);
  ::unsetenv("YSMART_TEST_ENV");
  EXPECT_EQ(env_nonempty("YSMART_TEST_ENV"), std::nullopt);
}

// ---- tracer structure ----

TEST(Tracer, SpansNestLifoAndParentCorrectly) {
  obs::Tracer t;
  const int a = t.begin("a", "query");
  const int b = t.begin("b", "phase");
  t.end(b);
  const int c = t.begin("c", "phase");
  t.end(c);
  t.end(a);
  ASSERT_TRUE(t.well_formed());
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, a);
  EXPECT_EQ(spans[2].parent, a);
  for (const auto& s : spans) EXPECT_FALSE(s.open());
}

TEST(Tracer, OutOfOrderEndMarksMalformedButStillCloses) {
  obs::Tracer t;
  const int a = t.begin("a", "query");
  const int b = t.begin("b", "phase");
  t.end(a);  // closes b too (LIFO violation)
  EXPECT_FALSE(t.well_formed());
  for (const auto& s : t.spans()) EXPECT_FALSE(s.open());
  EXPECT_TRUE(MiniJson(t.chrome_json()).parse());
  (void)b;
}

TEST(Tracer, SimIntervalSettableAfterEnd) {
  obs::Tracer t;
  const int a = t.begin("a", "job");
  t.end(a);
  t.set_sim(a, 10.0, 5.0);
  const auto spans = t.spans();
  EXPECT_TRUE(spans[0].has_sim());
  EXPECT_DOUBLE_EQ(spans[0].sim_start_s, 10.0);
  EXPECT_DOUBLE_EQ(spans[0].sim_dur_s, 5.0);
}

// ---- the query lifecycle, traced ----

TEST(QueryTrace, HierarchyCoversTheWholeLifecycle) {
  auto db = fresh_db();
  obs::ObsContext obs;
  db->set_observer(&obs);
  auto run = db->run(queries::qcsa().sql, TranslatorProfile::ysmart());
  ASSERT_FALSE(run.metrics.failed());
  ASSERT_TRUE(obs.tracer.well_formed());

  const std::string tree = obs.tracer.analyze_tree();
  for (const char* name :
       {"query:ysmart", "translate:ysmart", "parse+plan", "correlation-detect",
        "merge", "lower", "wave:0", "job:", "map", "shuffle-sort", "reduce",
        "post-job"})
    EXPECT_NE(tree.find(name), std::string::npos) << "missing span: " << name;

  // One wave span and one job span per executed job (serial submission).
  int waves = 0, jobs = 0;
  for (const auto& s : obs.tracer.spans()) {
    waves += s.category == "wave";
    jobs += s.category == "job";
  }
  EXPECT_EQ(jobs, run.metrics.job_count());
  EXPECT_EQ(waves, run.metrics.job_count());
}

TEST(QueryTrace, ChromeExportParsesBothAxes) {
  auto db = fresh_db();
  obs::ObsContext obs;
  db->set_observer(&obs);
  db->run(queries::qcsa().sql, TranslatorProfile::hive());
  for (auto axis : {obs::TimeAxis::Simulated, obs::TimeAxis::Wall,
                    obs::TimeAxis::Both}) {
    const std::string json = obs.tracer.chrome_json(axis);
    EXPECT_TRUE(MiniJson(json).parse()) << "axis JSON does not parse";
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  }
  // The two axes appear as two named pseudo-processes.
  const std::string both = obs.tracer.chrome_json(obs::TimeAxis::Both);
  EXPECT_NE(both.find("simulated cluster"), std::string::npos);
  EXPECT_NE(both.find("host wall-clock"), std::string::npos);
}

TEST(QueryTrace, SimulatedAxisIsDeterministic) {
  std::string exports[2];
  for (int i = 0; i < 2; ++i) {
    auto db = fresh_db();
    obs::ObsContext obs;
    db->set_observer(&obs);
    db->run(queries::qcsa().sql, TranslatorProfile::ysmart());
    exports[i] = obs.tracer.chrome_json(obs::TimeAxis::Simulated);
  }
  EXPECT_EQ(exports[0], exports[1])
      << "simulated-axis trace must be byte-identical across runs";
}

TEST(QueryTrace, ObservationDoesNotPerturbSimulatedMetrics) {
  auto plain_db = fresh_db();
  auto traced_db = fresh_db();
  obs::ObsContext obs;
  traced_db->set_observer(&obs);

  auto plain = plain_db->run(queries::qcsa().sql, TranslatorProfile::hive());
  auto traced = traced_db->run(queries::qcsa().sql, TranslatorProfile::hive());

  ASSERT_EQ(plain.metrics.job_count(), traced.metrics.job_count());
  for (int i = 0; i < plain.metrics.job_count(); ++i) {
    const auto& a = plain.metrics.jobs[static_cast<std::size_t>(i)];
    const auto& b = traced.metrics.jobs[static_cast<std::size_t>(i)];
    EXPECT_DOUBLE_EQ(a.map_time_s, b.map_time_s);
    EXPECT_DOUBLE_EQ(a.reduce_time_s, b.reduce_time_s);
    EXPECT_DOUBLE_EQ(a.sched_delay_s, b.sched_delay_s);
    EXPECT_EQ(a.shuffle_bytes_wire, b.shuffle_bytes_wire);
    EXPECT_EQ(a.dfs_write_bytes, b.dfs_write_bytes);
  }
  EXPECT_EQ(plain.result->row_count(), traced.result->row_count());
}

// ---- a failed query's reason ----

TEST(Metrics, FailedQueryLeavesReasonNote) {
  auto cfg = ClusterConfig::small_local(50);
  cfg.local_disk_capacity_bytes = 1 << 20;  // everything overflows
  Database db(cfg);
  db.create_table("clicks", tiny_clicks());
  obs::ObsContext obs;
  db.set_observer(&obs);
  auto run = db.run(queries::qcsa().sql, TranslatorProfile::hive());
  ASSERT_TRUE(run.metrics.failed());
  obs::QueryHistoryRecord rec;
  ASSERT_TRUE(obs.history.at(0, &rec));
  EXPECT_TRUE(rec.failed);
  EXPECT_NE(rec.fail_reason.find("disk"), std::string::npos);
  EXPECT_EQ(rec.fail_reason, run.metrics.fail_reason());
}

// ---- task samples reconcile with the job metrics ----

TEST(TaskSamples, SamplesReconcileWithJobMetrics) {
  auto db = fresh_db();
  obs::ObsContext obs;
  db->set_observer(&obs);
  auto run = db->run(queries::qcsa().sql, TranslatorProfile::ysmart());
  ASSERT_FALSE(run.metrics.failed());

  ASSERT_EQ(obs.samples.query_count(), 1u);
  const obs::QueryTaskSamples q = obs.samples.last_query();
  ASSERT_EQ(q.jobs.size(), static_cast<std::size_t>(run.metrics.job_count()));

  // Per-sample measurements reconcile with the job totals.
  for (std::size_t ji = 0; ji < q.jobs.size(); ++ji) {
    const auto& js = q.jobs[ji];
    const auto& jm = run.metrics.jobs[ji];
    EXPECT_EQ(js.job_name, jm.job_name);
    EXPECT_DOUBLE_EQ(js.map_time_s, jm.map_time_s);
    EXPECT_DOUBLE_EQ(js.reduce_time_s, jm.reduce_time_s);
    EXPECT_EQ(js.target_reduce_tasks, jm.reduce.tasks);
    EXPECT_EQ(js.map_tasks.size(), jm.map.tasks);
    // Map-only jobs report their output under map; the rest have one
    // sample per simulated reduce partition.
    EXPECT_EQ(js.reduce_tasks.empty(), js.map_only);
    std::uint64_t in_rec = 0, in_bytes = 0, shuffle_raw = 0;
    for (const auto& s : js.map_tasks) {
      in_rec += s.input_records;
      in_bytes += s.input_bytes;
    }
    for (const auto& s : js.reduce_tasks) shuffle_raw += s.shuffle_bytes_raw;
    EXPECT_EQ(in_rec, jm.map.input_records);
    EXPECT_EQ(in_bytes, jm.map.input_bytes);
    EXPECT_EQ(shuffle_raw, jm.shuffle_bytes_raw);
  }
}

// ---- a query that throws closes every surface ----

/// The value of field `key` of `e`, as its JSON text ("" when absent).
std::string field_of(const obs::Event& e, std::string_view key) {
  for (const auto& f : e.fields)
    if (f.key == key) return f.json;
  return "";
}

TEST(QueryLifecycle, QueryThatThrowsStillPublishesItsRecord) {
  TpchConfig tc;
  tc.orders = 50;
  const std::shared_ptr<const Table> nation = generate_tpch(tc).nation;
  // A mid-DAG failure (the second of three jobs throws in its map phase)
  // and a single-job one.
  for (const std::string sql :
       {"SELECT t.nm + 1 AS x FROM (SELECT n_name AS nm, count(*) AS c "
        "FROM nation GROUP BY n_name) t ORDER BY x",
        "SELECT n_name + 1 AS x FROM nation"}) {
    SCOPED_TRACE(sql);
    Database db(ClusterConfig::small_local(50));
    db.create_table("nation", nation);
    obs::ObsContext obs;
    db.set_observer(&obs);
    const std::vector<std::string> files = db.dfs().list();
    std::string what;
    try {
      db.run(sql, TranslatorProfile::ysmart());
    } catch (const ExecError& e) {  // rethrown unchanged
      what = e.what();
    }
    ASSERT_NE(what.find("value is not numeric"), std::string::npos);
    // The jobs that finished before the throw leave no output behind.
    EXPECT_EQ(db.dfs().list(), files);

    // The journal closes the query with a failed query-done.
    const std::vector<obs::Event> events = obs.events.events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().name, "query-done");
    EXPECT_EQ(events.back().level, obs::EventLevel::Error);
    EXPECT_EQ(field_of(events.back(), "failed"), "1");
    // The wave that threw is published too: the last wave-start has its
    // wave-done, right before query-done.
    const auto open = std::find_if(
        events.rbegin(), events.rend(),
        [](const obs::Event& e) { return e.name == "wave-start"; });
    ASSERT_NE(open, events.rend());
    const obs::Event& closed = events[events.size() - 2];
    EXPECT_EQ(closed.name, "wave-done");
    EXPECT_EQ(field_of(closed, "wave"), field_of(*open, "wave"));

    // Every job the query recorded has its wave's record, and the
    // analyzer's critical path is the query span's simulated duration.
    const obs::QueryTaskSamples qs = obs.samples.last_query();
    for (const auto& j : qs.jobs)
      EXPECT_TRUE(std::any_of(
          qs.waves.begin(), qs.waves.end(),
          [&](const obs::WaveSample& w) { return w.index == j.wave; }))
          << j.job_name;
    const obs::AnalyzerReport report = obs::analyze_query(qs);
    const std::vector<obs::Span> spans = obs.tracer.spans();
    const auto query_span =
        std::find_if(spans.begin(), spans.end(),
                     [](const obs::Span& sp) { return sp.category == "query"; });
    ASSERT_NE(query_span, spans.end());
    EXPECT_EQ(report.critical_path_s, query_span->sim_dur_s);

    // History records the query with the error as its reason.
    ASSERT_EQ(obs.history.size(), 1u);
    obs::QueryHistoryRecord rec;
    ASSERT_TRUE(obs.history.at(0, &rec));
    EXPECT_EQ(rec.sql, sql);
    EXPECT_TRUE(rec.failed);
    EXPECT_EQ(rec.fail_reason, what);

    // Every span closed, and the next query starts from a clean state:
    // its one wave starts at the cursor and ends it.
    EXPECT_TRUE(obs.tracer.well_formed());
    const double cursor = obs.tracer.sim_now();
    const auto ok = db.run("SELECT n_name FROM nation WHERE n_nationkey < 3",
                           TranslatorProfile::ysmart());
    ASSERT_FALSE(ok.metrics.failed());
    EXPECT_DOUBLE_EQ(obs.tracer.sim_now(), cursor + ok.metrics.wall_time_s);
    EXPECT_EQ(obs.history.size(), 2u);
    ASSERT_TRUE(obs.history.at(0, &rec));
    EXPECT_FALSE(rec.failed);
  }
}

// ---- null observer costs nothing and crashes nothing ----

TEST(NullObserver, ScopedSpanIsSafeOnNull) {
  obs::ScopedSpan s(nullptr, "x", "phase");
  EXPECT_FALSE(static_cast<bool>(s));
  EXPECT_EQ(s.id(), -1);
  s.sim(1, 2);
  s.arg("k", std::uint64_t{1});
  s.arg("k", 1.5);
  s.arg("k", std::string_view("v"));
}

TEST(NullObserver, DetachReallyDetaches) {
  auto db = fresh_db();
  obs::ObsContext obs;
  db->set_observer(&obs);
  db->run(queries::qagg().sql, TranslatorProfile::ysmart());
  const std::size_t count = obs.tracer.span_count();
  EXPECT_GT(count, 0u);
  db->set_observer(nullptr);
  db->run(queries::qagg().sql, TranslatorProfile::ysmart());
  EXPECT_EQ(obs.tracer.span_count(), count);
}

TEST(NullObserver, ObserverSurvivesReconfigureCluster) {
  auto db = fresh_db();
  obs::ObsContext obs;
  db->set_observer(&obs);
  db->reconfigure_cluster(ClusterConfig::small_local(25));
  db->create_table("clicks", tiny_clicks());
  db->run(queries::qagg().sql, TranslatorProfile::ysmart());
  EXPECT_GT(obs.tracer.span_count(), 0u);
  EXPECT_GT(obs.samples.total_jobs(), 0u);
}

}  // namespace
}  // namespace ysmart
