// Cross-query flight recorder: the last N completed queries, kept after
// their per-query observability (trace, samples) has been reset.
//
// The tracer and sample store are per-query surfaces — the shell clears
// them between queries so each printed tree covers one run. The history
// store is the session-level complement: obs::observe() appends one
// QueryHistoryRecord per Database::run — completed, DNF or thrown (SQL
// text, translation profile, job/wave counts, simulated and host times,
// failure reason or error, the query doctor's rendered report and the
// plan view), retaining the most recent kCapacity under ring retention.
// The shell surfaces it as \history [k], \last [i] (re-print a past
// query's analyze tree without re-running it) and \explain.
//
// Everything stored is copied from values already computed for the run;
// recording happens on the orchestrating thread after execution, so an
// attached history store cannot perturb simulated metrics (pinned in
// tests/test_robustness.cpp). Host wall milliseconds are the only
// nondeterministic field and are segregated in JSON like the tracer's
// wall axis.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/plan_view.h"

namespace ysmart::obs {

struct QueryHistoryRecord {
  std::uint64_t id = 0;  // 1-based across the session, survives eviction
  std::string sql;
  std::string profile;       // translation profile name
  int jobs = 0;
  int waves = 0;
  double sim_total_s = 0;    // serial sum of job times
  double sim_wall_s = 0;     // modeled end-to-end elapsed (waves overlap)
  double host_wall_ms = 0;   // nondeterministic: host execution time
  bool failed = false;
  std::string fail_reason;
  /// One-line analyzer digest (first diagnosis, or "ok").
  std::string digest;
  /// Full rendered analyzer report; what \last re-prints.
  std::string analyzer_text;
  /// The translate-time prediction joined against this run's actuals.
  /// Empty unless every predicted job ran, with the names in order: a
  /// run that stopped early has nothing to hold the rest against. Not
  /// part of json(); the bench's --explain writes it.
  std::optional<PlanReport> plan;
};

class QueryHistoryStore {
 public:
  static constexpr std::size_t kCapacity = 32;

  /// Append one completed query; assigns the record id. The oldest
  /// record is evicted once the ring is full.
  void add(QueryHistoryRecord record);

  std::size_t size() const;
  std::uint64_t total_recorded() const;  // lifetime count incl. evicted

  /// Most-recent-first snapshot of up to `k` records (0 = all retained).
  std::vector<QueryHistoryRecord> recent(std::size_t k = 0) const;

  /// The i-th most recent record (0 = latest). Returns false when fewer
  /// than i+1 records are retained.
  bool at(std::size_t i, QueryHistoryRecord* out) const;

  /// Whole store as one JSON document, most recent first:
  /// {"capacity":N,"total_recorded":M,"queries":[...]}.
  std::string json() const;

  /// Compact most-recent-first table for the shell's \history.
  std::string table(std::size_t k = 0) const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<QueryHistoryRecord> ring_;  // oldest first
  std::uint64_t next_id_ = 1;
};

}  // namespace ysmart::obs
