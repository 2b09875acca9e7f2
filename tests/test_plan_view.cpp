// Unit tests for the plan axis (obs/plan_view.h): the q-error
// convention, the translate-time predictor and its CostModel
// reconciliation contract, the predicted-vs-actual join, and the
// PlanViewStore's bounding and determinism guarantees.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "mr/cost_model.h"
#include "mr/metrics.h"
#include "obs/obs.h"
#include "obs/plan_view.h"

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
  ctx.plans.set_enabled(true);
  db->set_observer(&ctx);
  auto run = db->run(kJoinAggSql, TranslatorProfile::ysmart());
  ASSERT_FALSE(run.metrics.failed());
  // The prediction was consumed by the join at end of run().
  EXPECT_EQ(ctx.plans.pending_count(), 0u);
  ASSERT_EQ(ctx.plans.report_count(), 1u);
  obs::PlanReport rep;
  ASSERT_TRUE(ctx.plans.last_report(&rep));
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

// ---- what-if rendering ----

TEST(RenderWhatif, ShowsBothStrategiesAndVerdict) {
  auto merged = obs::join_plan_actuals(synthetic_prediction("AGG1"),
                                       obs::QueryTaskSamples{},
                                       synthetic_metrics("AGG1"));
  auto base_pred = synthetic_prediction("J1");
  base_pred.profile = "hive";
  base_pred.jobs[0].map_time_s = 4.0;  // predicted 2x slower overall
  base_pred.jobs[0].reduce_time_s = 2.0;
  base_pred.wall_time_s = base_pred.total_time_s();
  auto baseline = obs::join_plan_actuals(base_pred, obs::QueryTaskSamples{},
                                         QueryMetrics{});
  const std::string s = obs::render_whatif(merged, baseline);
  EXPECT_NE(s.find("what-if: ysmart vs hive"), std::string::npos) << s;
  EXPECT_NE(s.find("jobs (pred)"), std::string::npos);
  // Only the merged side executed: the baseline actual column shows "-".
  EXPECT_NE(s.find("-"), std::string::npos);
  // Predicted verdict names the faster strategy with the ratio.
  EXPECT_NE(s.find("faster"), std::string::npos) << s;
  EXPECT_NE(s.find("2.00x"), std::string::npos) << s;
}

// ---- calibration quantiles ----

TEST(Calibration, LowerMedianP95AndMaxColumns) {
  obs::CalibrationSnapshot snap;
  for (int i = 1; i <= 5; ++i) {
    obs::CalibrationSample s;
    s.id = static_cast<std::uint64_t>(i);
    s.q.assign(obs::kPlanMetrics.size(), static_cast<double>(i));
    snap.samples.push_back(std::move(s));
  }
  // Sorted column {1..5}: lower median index (4*50)/100 = 2 -> 3,
  // p95 index (4*95)/100 = 3 -> 4, max -> 5.
  EXPECT_DOUBLE_EQ(snap.p50(0), 3.0);
  EXPECT_DOUBLE_EQ(snap.p95(0), 4.0);
  EXPECT_DOUBLE_EQ(snap.max(0), 5.0);
  // Out-of-range metric column and the empty snapshot both read 0.
  EXPECT_DOUBLE_EQ(snap.p50(obs::kPlanMetrics.size() + 3), 0.0);
  obs::CalibrationSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.p95(0), 0.0);
  const std::string json = obs::calibration_json(snap);
  EXPECT_TRUE(MiniJson(json).parse()) << json;
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

// ---- the store: matching, bounding, determinism ----

TEST(PlanViewStore, AttachRequiresMatchingJobNames) {
  obs::PlanViewStore store;
  store.record_prediction(synthetic_prediction("AGG1"));
  EXPECT_FALSE(store.attach_actuals(obs::QueryTaskSamples{},
                                    synthetic_metrics("OTHER")));
  EXPECT_EQ(store.report_count(), 0u);
  EXPECT_EQ(store.pending_count(), 1u);  // prediction stays pending
  EXPECT_TRUE(store.attach_actuals(obs::QueryTaskSamples{},
                                   synthetic_metrics("AGG1")));
  EXPECT_EQ(store.report_count(), 1u);
  EXPECT_EQ(store.pending_count(), 0u);  // consumed by the join
}

TEST(PlanViewStore, PendingAndReportBuffersStayBounded) {
  obs::PlanViewStore store;
  for (int i = 0; i < 12; ++i)
    store.record_prediction(synthetic_prediction("J" + std::to_string(i)));
  EXPECT_EQ(store.pending_count(), obs::PlanViewStore::kMaxPending);
  obs::QueryPrediction last;
  ASSERT_TRUE(store.last_prediction(&last));
  EXPECT_EQ(last.jobs[0].name, "J11");  // newest retained

  for (int i = 0; i < 12; ++i) {
    store.record_prediction(synthetic_prediction("A" + std::to_string(i)));
    ASSERT_TRUE(store.attach_actuals(
        obs::QueryTaskSamples{}, synthetic_metrics("A" + std::to_string(i))));
  }
  EXPECT_EQ(store.report_count(), obs::PlanViewStore::kMaxReports);
  obs::PlanReport rep;
  ASSERT_TRUE(store.last_report(&rep));
  EXPECT_EQ(rep.jobs[0].name, "A11");
}

TEST(PlanViewStore, CalibrationRingEvictsOldestButIdsKeepCounting) {
  obs::PlanViewStore store;
  const std::size_t cap = obs::PlanViewStore::kDefaultCapacity;
  const int n = static_cast<int>(cap) + 8;
  for (int i = 0; i < n; ++i) {
    store.record_prediction(synthetic_prediction("Q"));
    ASSERT_TRUE(
        store.attach_actuals(obs::QueryTaskSamples{}, synthetic_metrics("Q")));
  }
  const obs::CalibrationSnapshot snap = store.calibration();
  EXPECT_EQ(snap.samples.size(), cap);
  EXPECT_EQ(snap.total_recorded, static_cast<std::uint64_t>(n));
  EXPECT_EQ(snap.samples.front().id, 9u);  // oldest 8 evicted
  EXPECT_EQ(snap.samples.back().id, static_cast<std::uint64_t>(n));
  ASSERT_EQ(snap.samples.back().q.size(), obs::kPlanMetrics.size());
}

TEST(PlanViewStore, ClearKeepsEnabledAndJsonIsDeterministic) {
  auto feed = [](obs::PlanViewStore& s) {
    s.set_enabled(true);
    s.record_prediction(synthetic_prediction("AGG1"));
    s.attach_actuals(obs::QueryTaskSamples{}, synthetic_metrics("AGG1"));
    s.record_prediction(synthetic_prediction("PENDING"));
  };
  obs::PlanViewStore a, b;
  feed(a);
  feed(b);
  // Identical histories render byte-identical reports and calibration.
  obs::PlanReport ra, rb;
  ASSERT_TRUE(a.last_report(&ra));
  ASSERT_TRUE(b.last_report(&rb));
  EXPECT_EQ(ra.json(), rb.json());
  EXPECT_TRUE(MiniJson(ra.json()).parse()) << ra.json();
  const std::string cal = obs::calibration_json(a.calibration());
  EXPECT_EQ(cal, obs::calibration_json(b.calibration()));
  EXPECT_TRUE(MiniJson(cal).parse()) << cal;
  EXPECT_TRUE(a.enabled());
  EXPECT_EQ(a.report_count(), 1u);

  a.clear();
  EXPECT_TRUE(a.enabled());  // clear drops data, keeps the switch
  EXPECT_EQ(a.pending_count(), 0u);
  EXPECT_EQ(a.report_count(), 0u);
  EXPECT_EQ(a.calibration().total_recorded, 0u);
  EXPECT_FALSE(a.last_report(nullptr));
}

}  // namespace
}  // namespace ysmart
