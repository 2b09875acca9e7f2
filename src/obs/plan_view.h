// The plan axis: predicted-vs-actual accountability for the translator.
//
// The paper's YSmart picks its merged plan with a pure connectivity
// heuristic — "Currently YSmart does not seek a solution based on
// execution cost estimations" (Section IV-A). This module shows how far
// a simple cost and cardinality prediction lands from what a run
// measures: a per-job prediction (input rows/bytes from StatsCatalog,
// reduce-group cardinality via estimate_groups, per-phase simulated
// seconds via CostModel) made before the query executes, joined after
// execution against the retained task samples and JobMetrics into an
// EXPLAIN ANALYZE tree annotated with estimated-vs-actual values and a
// ranked q-error report.
//
// Prediction model (deliberately simple — the point is to *measure* how
// wrong it is, per quantity):
//  * Base-table inputs read their true DFS block map (block splitting and
//    replica locality exactly as the engine schedules them); intermediate
//    inputs take the producing job's predicted output, split into
//    ceil(bytes / block_bytes) uniform blocks assumed node-local.
//  * Filters are assumed to pass: every emission ships one pair per input
//    record at the input's average row width.
//  * Reduce groups come from StatsCatalog::estimate_groups over the
//    job's TranslatedJob::partition_key; join output is |L|x|R| / groups
//    (saturating, independence assumption); aggregation output is
//    min(input, groups). Unknown columns make groups unbounded — the
//    prediction clamps to the input record count and flags it.
//  * Phase times replay the engine's cost path: intermediate-expansion
//    then compression on map output, uniform per-real-task reduce work
//    (totals / target_reduce_tasks), CostModel per-task seconds, greedy
//    LPT makespan over the *uncontended* slot counts. Predicted
//    scheduling delay is the contention model's mean (0 when disabled).
//
// Reconciliation contract: every JobPrediction retains the exact
// MapTaskWork / ReduceTaskWork groups it costed, and the stored phase
// seconds EQUAL (==, not approximately) a standalone CostModel replay of
// those groups — pinned by test_plan_view. Like the analyzer and the
// cluster view, everything here is a pure function of already-computed
// values: while an observer is attached, Database::run predicts on the
// orchestrating thread before anything executes, and observe() joins
// the prediction into the query's history record (obs/history.h) after
// execution, so the plan view cannot perturb simulated metrics, results,
// or any other observability JSON (pinned by test_robustness).
//
// q-error convention (symmetric, finite, deterministic):
//   q(est, act) = max(est, act) / min(est, act)      when both > 0
//               = 1                                   when both <= 0
//               = max(est, act) + 1                   when exactly one is 0
// The one-sided form keeps a missed-entirely prediction (est 0, act N)
// finite and monotone in the miss, so rankings and JSON stay well-formed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mr/cost_model.h"
#include "obs/task_samples.h"

namespace ysmart {
class Dfs;
class JsonWriter;
class StatsCatalog;
struct ClusterConfig;
struct QueryMetrics;
struct TranslatedQuery;
struct TranslatorProfile;
}  // namespace ysmart

namespace ysmart::obs {

/// Symmetric finite q-error; see the convention in the header comment.
double q_error(double est, double act);

/// A run of identically-shaped predicted tasks (blocks of one input file
/// share their work shape, so predictions stay compact on wide inputs).
struct PredictedMapGroup {
  std::uint64_t count = 0;
  MapTaskWork work;
};
struct PredictedReduceGroup {
  std::uint64_t count = 0;  // real (target) reduce tasks of this shape
  ReduceTaskWork work;
};

struct JobPrediction {
  std::string name;
  bool map_only = false;
  int wave = 0;  // predicted dependency wave (inputs resolve upstream)
  std::string partition_key;  // rendered PK, "" when none

  // Input side (map phase reads).
  std::uint64_t input_rows = 0;
  std::uint64_t input_bytes = 0;
  /// True when any input is a predicted intermediate (not a DFS file that
  /// exists at translate time) — its size is itself an estimate.
  bool input_estimated = false;

  // Predicted map output, after intermediate expansion / compression.
  std::uint64_t map_output_records = 0;
  std::uint64_t map_output_bytes_raw = 0;
  std::uint64_t map_output_bytes_wire = 0;

  // Predicted reduce side (all zero for map-only jobs).
  std::uint64_t reduce_records = 0;
  /// estimate_groups over the partition key, clamped to reduce_records.
  std::uint64_t reduce_groups = 0;
  bool groups_unbounded = false;  // estimate_groups hit unknown columns
  bool groups_sampled = false;    // an input table's NDV scan was truncated
  std::uint64_t output_rows = 0;
  std::uint64_t output_bytes = 0;

  // Task/slot shape the phase times were computed over.
  std::uint64_t map_tasks = 0;
  std::uint64_t target_reduce_tasks = 0;
  int map_slots = 1;
  int reduce_slots = 1;
  double map_cpu_multiplier = 1.0;
  double reduce_cpu_multiplier = 1.0;

  // Predicted simulated seconds (the CostModel replay witness: these are
  // exactly makespan(cost(map_work), map_slots) etc. — EXPECT_EQ-able).
  double sched_delay_s = 0;
  double map_time_s = 0;
  double reduce_time_s = 0;
  double total_time_s() const {
    return sched_delay_s + map_time_s + reduce_time_s;
  }

  std::vector<PredictedMapGroup> map_work;
  std::vector<PredictedReduceGroup> reduce_work;
};

struct QueryPrediction {
  std::string sql;
  std::string profile;
  bool concurrent_submission = false;
  std::vector<JobPrediction> jobs;
  int waves = 0;
  /// Modeled end-to-end elapsed: serial job sum, or the wave fold when
  /// the profile submits independent jobs concurrently.
  double wall_time_s = 0;

  double total_time_s() const;
  std::uint64_t shuffle_bytes_wire() const;

  void to_json(JsonWriter& w) const;
  std::string json() const;
};

/// Predict one translated query against the current catalog state. Pure:
/// reads stats/DFS/cluster config only, never mutates them, and two calls
/// with the same arguments produce identical predictions.
QueryPrediction predict_query(const TranslatedQuery& q,
                              const TranslatorProfile& profile,
                              const StatsCatalog& stats, const Dfs& dfs,
                              const ClusterConfig& cfg,
                              const std::string& sql = "");

/// One estimated-vs-actual comparison row.
struct ComparisonRow {
  std::string metric;  // fixed vocabulary, see kPlanMetrics
  double est = 0;
  double act = 0;
  double q = 1;
  bool sampled = false;    // estimate derived from truncated-scan NDVs
  bool unbounded = false;  // estimate was clamped from an unknown NDV
};

struct JobComparison {
  std::string name;
  bool map_only = false;
  int wave_pred = 0;
  int wave_act = 0;
  std::string partition_key;
  std::vector<ComparisonRow> rows;  // fixed metric order
  double max_q = 1;
};

/// One ranked mis-estimate: (job, metric) ordered by q-error descending.
struct RankedMiss {
  std::string job;  // "" = query-level row
  std::string metric;
  double est = 0;
  double act = 0;
  double q = 1;
};

/// The joined EXPLAIN ANALYZE document of one executed query.
struct PlanReport {
  QueryPrediction prediction;
  bool executed = false;  // false: joined against a run with no jobs

  // Actual side (from QueryMetrics / QueryTaskSamples).
  int actual_jobs = 0;
  int actual_waves = 0;
  double actual_wall_s = 0;
  std::uint64_t actual_shuffle_wire = 0;

  std::vector<JobComparison> jobs;   // prediction order, name-matched
  std::vector<ComparisonRow> query;  // query-level rows (fixed order)
  std::vector<RankedMiss> ranked;    // q desc, then job asc, metric asc
  double max_q = 1;

  /// EXPLAIN ANALYZE-style indented text with the ranked-misses section.
  std::string text() const;
  /// JSON object; full=true adds per-job work-group task shapes (the
  /// --explain document shape), full=false is the compact
  /// form embedded under a bench record's "plan" key. Deterministic key
  /// order, %.17g doubles.
  void to_json(JsonWriter& w, bool full = true) const;
  std::string json(bool full = true) const;
};

/// Join a prediction against an executed run's samples + metrics. Pure;
/// safe on empty metrics (returns a prediction-only report).
PlanReport join_plan_actuals(const QueryPrediction& pred,
                             const QueryTaskSamples& samples,
                             const QueryMetrics& metrics);

/// Fixed metric vocabulary of comparison rows, in row order.
extern const std::vector<std::string> kPlanMetrics;

}  // namespace ysmart::obs
