// Unit tests for the plan axis (obs/plan_view.h): the q-error
// convention, the translate-time predictor and its CostModel
// reconciliation contract, the predicted-vs-actual join, and which
// query's history record (and bench record) a plan view lands in.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "mr/cost_model.h"
#include "mr/metrics.h"
#include "obs/obs.h"
#include "obs/plan_view.h"
#include "report.h"

namespace ysmart {
namespace {

// ---- a strict mini JSON parser (same shape as tests/test_obs.cpp) ----
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
    ++pos_;
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
    ++pos_;
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
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
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
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  std::string_view s_;
  std::size_t pos_ = 0;
};

// ---- q-error convention ----

TEST(QError, SymmetricRatioAboveOne) {
  EXPECT_DOUBLE_EQ(obs::q_error(2, 8), 4.0);
  EXPECT_DOUBLE_EQ(obs::q_error(8, 2), 4.0);
  EXPECT_DOUBLE_EQ(obs::q_error(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(obs::q_error(0.5, 2), 4.0);
}

TEST(QError, BothNonPositiveIsExactlyOne) {
  EXPECT_DOUBLE_EQ(obs::q_error(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(obs::q_error(-3, 0), 1.0);
  EXPECT_DOUBLE_EQ(obs::q_error(-1, -7), 1.0);
}

TEST(QError, OneSidedZeroStaysFiniteAndMonotone) {
  // A missed-entirely prediction must rank worse the bigger the miss,
  // without going infinite (the naive ratio would).
  EXPECT_DOUBLE_EQ(obs::q_error(0, 5), 6.0);
  EXPECT_DOUBLE_EQ(obs::q_error(5, 0), 6.0);  // symmetric
  EXPECT_GT(obs::q_error(0, 100), obs::q_error(0, 5));
  EXPECT_TRUE(std::isfinite(obs::q_error(0, 1e18)));
}

// ---- predictor: determinism and the CostModel replay contract ----

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

std::shared_ptr<Table> tiny_users() {
  Schema us;
  us.add("id", ValueType::Int);
  us.add("region", ValueType::Int);
  auto t = std::make_shared<Table>(us);
  for (int i = 0; i < 7; ++i) t->append({Value{i}, Value{i % 3}});
  return t;
}

std::unique_ptr<Database> fresh_db() {
  auto db = std::make_unique<Database>(ClusterConfig::small_local(50));
  db->create_table("clicks", tiny_clicks());
  db->create_table("users", tiny_users());
  return db;
}

// A join + aggregation: translates to a multi-job plan under the
// one-op-one-job baseline and exercises both phases everywhere.
constexpr const char* kJoinAggSql =
    "SELECT u.region, count(*) AS n FROM clicks c, users u "
    "WHERE c.uid = u.id GROUP BY u.region";

TEST(PredictQuery, PureAndDeterministic) {
  auto db = fresh_db();
  const auto profile = TranslatorProfile::ysmart();
  TranslatedQuery q = db->translate_query(kJoinAggSql, profile);
  const obs::QueryPrediction a = obs::predict_query(
      q, profile, db->stats(), db->dfs(), db->cluster(), kJoinAggSql);
  const obs::QueryPrediction b = obs::predict_query(
      q, profile, db->stats(), db->dfs(), db->cluster(), kJoinAggSql);
  EXPECT_EQ(a.json(), b.json());
  ASSERT_FALSE(a.jobs.empty());
  EXPECT_GT(a.jobs.front().input_rows, 0u);
  EXPECT_GT(a.wall_time_s, 0.0);
  EXPECT_TRUE(MiniJson(a.json()).parse()) << a.json();
}

TEST(PredictQuery, PhaseSecondsEqualStandaloneCostModelReplay) {
  // The reconciliation contract from the plan_view.h header: the stored
  // per-phase seconds are EXACTLY a CostModel replay of the retained
  // work groups — EXPECT_EQ, not near.
  auto db = fresh_db();
  const auto profile = TranslatorProfile::ysmart();
  TranslatedQuery q = db->translate_query(kJoinAggSql, profile);
  const obs::QueryPrediction pred = obs::predict_query(
      q, profile, db->stats(), db->dfs(), db->cluster(), kJoinAggSql);
  const CostModel cost(db->cluster());
  ASSERT_FALSE(pred.jobs.empty());
  double total = 0;
  for (const auto& jp : pred.jobs) {
    std::vector<double> map_times;
    std::uint64_t map_tasks = 0;
    for (const auto& g : jp.map_work) {
      const double t = cost.map_task_seconds(g.work, jp.map_cpu_multiplier);
      for (std::uint64_t i = 0; i < g.count; ++i) map_times.push_back(t);
      map_tasks += g.count;
    }
    EXPECT_EQ(map_tasks, jp.map_tasks) << jp.name;
    const double map_s =
        map_times.empty() ? 0.0 : CostModel::makespan(map_times, jp.map_slots);
    EXPECT_EQ(map_s, jp.map_time_s) << jp.name;

    std::vector<double> red_times;
    for (const auto& g : jp.reduce_work) {
      const double t =
          cost.reduce_task_seconds(g.work, jp.reduce_cpu_multiplier);
      for (std::uint64_t i = 0; i < g.count; ++i) red_times.push_back(t);
    }
    const double red_s =
        red_times.empty() ? 0.0
                          : CostModel::makespan(red_times, jp.reduce_slots);
    EXPECT_EQ(red_s, jp.reduce_time_s) << jp.name;
    if (jp.map_only) {
      EXPECT_TRUE(jp.reduce_work.empty()) << jp.name;
      EXPECT_EQ(jp.reduce_time_s, 0.0) << jp.name;
    }
    EXPECT_EQ(jp.total_time_s(),
              jp.sched_delay_s + jp.map_time_s + jp.reduce_time_s);
    total += jp.total_time_s();
  }
  EXPECT_EQ(pred.total_time_s(), total);
}

TEST(PredictQuery, EndToEndJoinMatchesExecutedJobNames) {
  auto db = fresh_db();
  obs::ObsContext ctx;
  db->set_observer(&ctx);
  auto run = db->run(kJoinAggSql, TranslatorProfile::ysmart());
  ASSERT_FALSE(run.metrics.failed());
  // The end of run() joined the prediction into the query's record.
  obs::QueryHistoryRecord rec;
  ASSERT_TRUE(ctx.history.at(0, &rec));
  ASSERT_TRUE(rec.plan.has_value());
  const obs::PlanReport& rep = *rec.plan;
  EXPECT_TRUE(rep.executed);
  EXPECT_EQ(rep.actual_jobs, run.metrics.job_count());
  ASSERT_EQ(rep.jobs.size(), run.metrics.jobs.size());
  for (std::size_t i = 0; i < rep.jobs.size(); ++i)
    EXPECT_EQ(rep.jobs[i].name, run.metrics.jobs[i].job_name);
  // The actual side of the join reproduces the engine's measurements:
  // input rows act == the engine's measured map input records, exactly.
  for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
    ASSERT_FALSE(rep.jobs[i].rows.empty());
    EXPECT_EQ(rep.jobs[i].rows[0].metric, "input_rows");
    EXPECT_EQ(rep.jobs[i].rows[0].act,
              static_cast<double>(run.metrics.jobs[i].map.input_records));
  }
  // Base-table inputs are fully known at translate time: the first job's
  // input rows must be dead-on (q == 1 for that row).
  EXPECT_EQ(rep.jobs[0].rows[0].q, 1.0);
  // Text + JSON render without falling over, and the JSON parses.
  EXPECT_NE(rep.text().find("== plan view"), std::string::npos);
  EXPECT_TRUE(MiniJson(rep.json(/*full=*/true)).parse());
  EXPECT_TRUE(MiniJson(rep.json(/*full=*/false)).parse());
  // The compact form drops the heavyweight work groups.
  EXPECT_EQ(rep.json(false).find("\"map_work\""), std::string::npos);
  EXPECT_NE(rep.json(true).find("\"map_work\""), std::string::npos);
}

// ---- join against actuals: edge cases ----

obs::QueryPrediction synthetic_prediction(const std::string& job_name,
                                          bool map_only = false) {
  obs::QueryPrediction p;
  p.profile = "ysmart";
  p.sql = "SELECT 1";
  obs::JobPrediction j;
  j.name = job_name;
  j.map_only = map_only;
  j.input_rows = 10;
  j.input_bytes = 100;
  j.map_output_records = 10;
  j.map_output_bytes_raw = 100;
  j.map_output_bytes_wire = 80;
  if (!map_only) {
    j.reduce_records = 10;
    j.reduce_groups = 5;
    j.target_reduce_tasks = 2;
  }
  j.map_time_s = 1.0;
  j.reduce_time_s = map_only ? 0.0 : 2.0;
  p.jobs.push_back(std::move(j));
  p.waves = 1;
  p.wall_time_s = p.total_time_s();
  return p;
}

QueryMetrics synthetic_metrics(const std::string& job_name) {
  QueryMetrics m;
  JobMetrics j;
  j.job_name = job_name;
  j.map.input_records = 10;
  j.map.input_bytes = 100;
  j.map.output_records = 20;  // predictor said 10: q == 2
  j.shuffle_bytes_wire = 80;
  j.map_time_s = 1.0;
  j.reduce_time_s = 4.0;  // predictor said 2: q == 2
  m.jobs.push_back(std::move(j));
  m.wall_time_s = 5.0;
  return m;
}

TEST(JoinPlanActuals, EmptyMetricsYieldsPredictionOnlyReport) {
  const auto pred = synthetic_prediction("AGG1");
  const obs::PlanReport rep =
      obs::join_plan_actuals(pred, obs::QueryTaskSamples{}, QueryMetrics{});
  EXPECT_FALSE(rep.executed);
  EXPECT_EQ(rep.actual_jobs, 0);
  ASSERT_EQ(rep.jobs.size(), 1u);
  // Every actual is 0; q follows the one-sided convention (est + 1).
  const auto& rows = rep.jobs[0].rows;
  ASSERT_EQ(rows.size(), obs::kPlanMetrics.size());
  EXPECT_EQ(rows[0].metric, "input_rows");
  EXPECT_DOUBLE_EQ(rows[0].q, 11.0);  // est 10, act 0
  EXPECT_NE(rep.text().find("not executed"), std::string::npos);
}

TEST(JoinPlanActuals, MapOnlyJobZeroesReduceSideRows) {
  // For a map-only job the predictor reports no shuffle and no groups;
  // the join must compare 0 vs 0 (q == 1), not est vs missing.
  auto pred = synthetic_prediction("SCAN1", /*map_only=*/true);
  QueryMetrics m;
  JobMetrics j;
  j.job_name = "SCAN1";
  j.map.input_records = 10;
  j.map.input_bytes = 100;
  j.map.output_records = 10;
  j.map_time_s = 1.0;
  m.jobs.push_back(std::move(j));
  const obs::PlanReport rep =
      obs::join_plan_actuals(pred, obs::QueryTaskSamples{}, m);
  ASSERT_EQ(rep.jobs.size(), 1u);
  for (const auto& row : rep.jobs[0].rows)
    if (row.metric == "shuffle_wire_bytes" || row.metric == "reduce_groups") {
      EXPECT_DOUBLE_EQ(row.q, 1.0) << row.metric;
    }
  // ...and the text report hides those meaningless rows entirely.
  EXPECT_EQ(rep.text().find("reduce_groups"), std::string::npos);
}

TEST(JoinPlanActuals, QueryRowsSumJobsAndRankedSortsByQ) {
  const auto pred = synthetic_prediction("AGG1");
  const auto m = synthetic_metrics("AGG1");
  const obs::PlanReport rep =
      obs::join_plan_actuals(pred, obs::QueryTaskSamples{}, m);
  EXPECT_TRUE(rep.executed);
  ASSERT_EQ(rep.query.size(), obs::kPlanMetrics.size());
  // Query-level rows are the per-job sums (single job: equal).
  for (std::size_t i = 0; i < rep.query.size(); ++i) {
    EXPECT_EQ(rep.query[i].est, rep.jobs[0].rows[i].est);
    EXPECT_EQ(rep.query[i].act, rep.jobs[0].rows[i].act);
  }
  // Ranked misses come out q-descending, ties broken job then metric asc.
  ASSERT_FALSE(rep.ranked.empty());
  for (std::size_t i = 1; i < rep.ranked.size(); ++i) {
    const auto& a = rep.ranked[i - 1];
    const auto& b = rep.ranked[i];
    EXPECT_TRUE(a.q > b.q || (a.q == b.q && (a.job < b.job ||
                (a.job == b.job && a.metric <= b.metric))));
  }
  EXPECT_DOUBLE_EQ(rep.ranked[0].q, rep.max_q);
  // reduce_groups missed entirely (est 5, no samples): one-sided q == 6.
  double groups_q = 0;
  for (const auto& row : rep.jobs[0].rows)
    if (row.metric == "reduce_groups") groups_q = row.q;
  EXPECT_DOUBLE_EQ(groups_q, 6.0);
}

// ---- the plan view belongs to its own query ----

TEST(PlanView, DnfAfterAJoinedQueryHoldsNoPlan) {
  // On one Database and context, a query that joined and then one that
  // stops before its last predicted job. The second has nothing to join
  // its prediction with: neither its history record nor its bench record
  // may show a plan, let alone the first query's.
  auto db = fresh_db();
  const std::string path = testing::TempDir() + "dnf_after_join.plan.json";
  const char* argv[] = {"test", "--explain", path.c_str()};
  bench::Report report("dnf_after_join", 3, const_cast<char**>(argv));
  const auto profile = TranslatorProfile::ysmart();
  ASSERT_FALSE(
      run_and_record(report, *db, "join", kJoinAggSql, profile).metrics.failed());

  ClusterConfig doomed = ClusterConfig::small_local(50);
  doomed.task_failure_rate = 1.0;  // every attempt fails: the first job DNFs
  db->reconfigure_cluster(doomed);
  constexpr const char* kTwoJobSql =
      "SELECT cid, count(*) AS n FROM clicks GROUP BY cid ORDER BY n";
  const auto dnf = run_and_record(report, *db, "dnf", kTwoJobSql, profile);
  ASSERT_TRUE(dnf.metrics.failed());
  ASSERT_LT(dnf.metrics.jobs.size(),
            db->translate_query(kTwoJobSql, profile).jobs.size());

  obs::QueryHistoryRecord joined, stopped;
  ASSERT_TRUE(report.obs()->history.at(1, &joined));
  ASSERT_TRUE(report.obs()->history.at(0, &stopped));
  ASSERT_TRUE(joined.plan.has_value());
  EXPECT_EQ(joined.plan->prediction.sql, kJoinAggSql);
  EXPECT_TRUE(stopped.failed);
  EXPECT_FALSE(stopped.plan.has_value());

  // The bench report embeds the join's plan and none for the DNF run.
  const std::string json = report.json();
  const std::size_t dnf_record = json.find("\"query\":\"dnf\"");
  ASSERT_NE(dnf_record, std::string::npos);
  EXPECT_LT(json.find("\"plan\":"), dnf_record);
  EXPECT_EQ(json.find("\"plan\":", dnf_record), std::string::npos);
  const std::string plans = report.plans_json();
  EXPECT_NE(plans.find("\"query\":\"join\""), std::string::npos);
  EXPECT_EQ(plans.find("\"query\":\"dnf\""), std::string::npos);
  EXPECT_TRUE(report.write());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ysmart
