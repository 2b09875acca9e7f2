// ObsContext: the observability subsystem's front door.
//
// One ObsContext bundles every observability surface, attached (non-
// owning) to a Database/Engine via set_observer()/set_obs():
//
//   tracer    per-query span tree (Chrome trace / EXPLAIN ANALYZE)
//   samples   per-task and per-wave records for the query doctor
//   events    structured event journal (leveled, categorized JSONL)
//   history   cross-query flight recorder (last N completed queries, each
//             with its predicted-vs-actual plan view, \explain)
//   profiler  host-axis CPU/allocation/dispatch accounting (\hotspots)
//
// All of them are derived from one record per lifecycle level, filled
// whether or not an observer is attached: the engine's job record
// (JobTaskSamples, obs/task_samples.h, filled as it measures and costs
// each task), the DAG executor's WaveRecord and Database::run's
// QueryRecord. Each is
// handed to observe() at fixed points, and observe() alone projects it
// onto every surface; with a null ObsContext it returns at once. It runs
// on the orchestrating thread once the values it reads are final and
// only reads them, so observation cannot perturb results or simulated
// metrics (tests/test_obs.cpp, tests/test_robustness.cpp);
// tests/test_obs_golden.cpp pins the surfaces themselves. What stays at
// the call sites is host-axis timing, which must bracket the region it
// times: wall-clock spans (ScopedSpan) and profiled phases (PhaseScope
// plus a TaskClock per worker chunk).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/plan_view.h"
#include "obs/profiler.h"
#include "obs/task_samples.h"
#include "obs/trace.h"

namespace ysmart {
struct JobMetrics;
struct QueryMetrics;
}  // namespace ysmart

namespace ysmart::obs {

struct ObsContext {
  Tracer tracer;
  TaskSampleStore samples;
  EventLog events;
  QueryHistoryStore history;
  HostProfiler profiler;

  /// True while the DAG executor has a wave open: its jobs all start at
  /// the tracer's sim cursor, and only the wave's end advances it.
  bool in_wave = false;

  void clear() {
    tracer.clear();
    samples.clear();
    events.clear();
    history.clear();
    profiler.clear();  // keeps its enabled state, drops recorded phases
    in_wave = false;
  }
};

/// RAII span: begins on construction (when `obs` is non-null), ends on
/// destruction. All methods are no-ops on a disabled span, so call sites
/// read linearly without null checks.
class ScopedSpan {
 public:
  ScopedSpan(ObsContext* obs, std::string name, std::string category)
      : tracer_(obs ? &obs->tracer : nullptr) {
    if (tracer_) id_ = tracer_->begin(std::move(name), std::move(category));
  }
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  explicit operator bool() const { return tracer_ != nullptr; }
  int id() const { return id_; }

  void sim(double start_s, double dur_s) {
    if (tracer_) tracer_->set_sim(id_, start_s, dur_s);
  }
  void arg(std::string key, std::uint64_t value) {
    if (tracer_) tracer_->arg(id_, std::move(key), value);
  }
  void arg(std::string key, double value) {
    if (tracer_) tracer_->arg(id_, std::move(key), value);
  }
  void arg(std::string key, std::string_view value) {
    if (tracer_) tracer_->arg(id_, std::move(key), value);
  }

 private:
  Tracer* tracer_ = nullptr;
  int id_ = -1;
};

/// One profiled phase: a wall-clock span plus the host profiler's
/// aggregate for it, opened and closed together. Work inside the phase
/// attributes its host CPU through TaskClock(agg()), one per worker
/// chunk. Inert with a null ObsContext.
class PhaseScope : public ScopedSpan {
 public:
  /// Span `span` in `category`, profiled as phase `phase` of `job`.
  PhaseScope(ObsContext* obs, std::string span, std::string category,
             std::string job, std::string phase)
      : ScopedSpan(obs, std::move(span), std::move(category)),
        clock_(obs ? &obs->profiler : nullptr, id(), std::move(job),
               std::move(phase)) {}
  /// Engine phase `phase` of job `job`: span `phase` in category "phase".
  PhaseScope(ObsContext* obs, const std::string& job, const char* phase)
      : PhaseScope(obs, phase, "phase", job, phase) {}

  HostProfiler::PhaseAgg* agg() const { return clock_.agg(); }

 private:
  PhaseClock clock_;
};

/// The points at which the engine hands over its job record. Start comes
/// after the contention draw and the task list (task counts known),
/// MapDone once the map tasks are folded into JobMetrics, Done after the
/// outputs are written. `m` is the job's JobMetrics as filled so far.
enum class JobPoint { Start, MapDone, Done };
void observe(ObsContext* obs, JobPoint at, JobTaskSamples& job,
             const JobMetrics& m);

/// One dependency wave of the DAG executor: jobs submitted together.
/// Done is published on every exit, also when a job of the wave threw,
/// so every recorded job has its wave's record.
struct WaveRecord {
  int index = 0;
  std::size_t jobs = 0;
  int span = -1;             // the wave's tracer span
  double sim_start_s = 0;    // set at Start from the tracer's cursor
  double elapsed_s = 0;      // the slowest finished job's total
  bool aborts = false;       // a job failed: no later wave runs
  std::size_t pending_jobs = 0;  // jobs never scheduled after the abort
};
enum class WavePoint { Start, Done };
void observe(ObsContext* obs, WavePoint at, WaveRecord& wave);

/// One Database::run. Done is published on every exit: with `metrics`
/// after a completed run (DNF included), or with `error` set when the
/// run threw, in which case the jobs that completed stand in for it.
/// Done joins `prediction` against the actuals into the history record
/// when every predicted job ran, with the names in order.
struct QueryRecord {
  std::string sql;
  std::string profile;
  int span = -1;             // the query's tracer span
  double sim_start_s = 0;    // set at Start from the tracer's cursor
  std::chrono::steady_clock::time_point host_start{};  // set at Start
  std::size_t jobs = 0;      // translated job count
  /// Set by Database::run after translation, before anything executes,
  /// so the join against actuals is honest (obs/plan_view.h).
  std::optional<QueryPrediction> prediction{};
  const QueryMetrics* metrics = nullptr;
  std::string error{};
};
enum class QueryPoint { Start, Translated, Done };
void observe(ObsContext* obs, QueryPoint at, QueryRecord& query);

/// A finished Database::translate_query: the translate span's job count
/// and the "translated" event.
void observe_translation(ObsContext* obs, int span, const std::string& profile,
                         std::size_t jobs);

}  // namespace ysmart::obs
