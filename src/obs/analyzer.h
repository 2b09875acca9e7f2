// The "query doctor": turns retained task samples into skew, straggler,
// hot-key and critical-path analysis of one executed query.
//
// Everything here is a pure function of a QueryTaskSamples snapshot, so
// an analysis can be (re)computed at any time after a run without
// touching the engine. All statistics derive from simulated seconds and
// measured bytes/records — deterministic for a fixed seed — so the
// rendered report and its JSON form are byte-identical across runs and
// thread-pool sizes.
//
// Definitions (also in DESIGN.md "Task-level observability"):
//  * median      — lower median: sorted_times[(n-1)/2] (deterministic,
//                  no averaging of middle elements).
//  * cv          — coefficient of variation: population stddev / mean
//                  (0 when mean is 0).
//  * straggler   — a task with sim_seconds > 2 × median in a phase with
//                  at least 2 tasks.
//  * critical path — jobs group into dependency waves (the DAG
//                  executor's submission waves); a wave's elapsed time
//                  is the executor's own record of it (obs/task_samples.h)
//                  and the critical path is those records summed in wave
//                  order, as the executor sums wall_time_s — so under any
//                  submission mode critical_path_s == wall_time_s
//                  exactly, and under serial submission it also equals
//                  the serial job-time sum. A wave's critical job is the
//                  first whose total equals the wave's elapsed time.
//                  Per-job slack is the wave's elapsed time minus the
//                  job's total: how much longer the job could have run
//                  without growing the makespan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/cluster_view.h"
#include "obs/task_samples.h"

namespace ysmart {
class JsonWriter;
}

namespace ysmart::obs {

/// Distribution statistics of one phase's per-task simulated seconds.
struct PhaseSkewStats {
  std::size_t tasks = 0;
  double total_s = 0;
  double max_s = 0;
  double median_s = 0;
  double mean_s = 0;
  double cv = 0;                 // population stddev / mean
  std::vector<int> stragglers;   // sample indices > 2 * median
};

/// One of the heaviest reduce partitions of a job.
struct HeavyPartition {
  int partition = 0;
  double sim_seconds = 0;
  std::uint64_t shuffle_bytes_raw = 0;
  double shuffle_share = 0;  // of the job's total raw shuffle bytes
  std::uint64_t key_groups = 0;
  std::uint64_t records = 0;
  std::vector<std::uint64_t> tag_records;  // per source tag (CMF)
};

struct JobAnalysis {
  std::string name;
  int wave = 0;
  bool map_only = false;
  bool failed = false;

  double sched_delay_s = 0;
  double map_time_s = 0;
  double reduce_time_s = 0;
  double total_s = 0;
  double slack_s = 0;            // wave elapsed - total
  bool on_critical_path = false; // this job defines its wave's elapsed time
  double critical_share = 0;     // total_s / critical_path_s

  std::uint64_t target_reduce_tasks = 0;
  PhaseSkewStats map;
  PhaseSkewStats reduce;
  std::vector<HeavyPartition> top_partitions;  // by raw shuffle bytes desc
  std::vector<SpaceSaving::Entry> hot_keys;
  std::uint64_t reduce_records = 0;  // total records entering reduce
  std::vector<std::string> key_columns;
};

struct WaveAnalysis {
  int wave = 0;
  double elapsed_s = 0;
  int critical_job = -1;  // index into AnalyzerReport::jobs
  int job_count = 0;
};

struct AnalyzerReport {
  std::vector<JobAnalysis> jobs;
  std::vector<WaveAnalysis> waves;
  double critical_path_s = 0;  // == QueryMetrics::wall_time_s
  double serial_total_s = 0;   // sum of job totals
  std::vector<std::string> diagnosis;
  /// The cluster doctor (obs/cluster_view.h): per-node rollups and
  /// node-level diagnosis. Embedded compactly in to_json() under
  /// "cluster" (top nodes + aggregates; the full matrix/timeline shape
  /// is the standalone --cluster document).
  ClusterReport cluster;

  /// EXPLAIN ANALYZE-style indented report with the diagnosis section.
  std::string text() const;
  /// JSON object (schema: the "analyzer" section of
  /// bench/bench_schema.json); deterministic key order.
  void to_json(JsonWriter& w) const;
  std::string json() const;
};

/// Analyze one query's samples. Jobs with wave -1 (standalone engine
/// runs) are treated as serial: each forms its own wave in order. Throws
/// InternalError when a job names a wave that has no record.
AnalyzerReport analyze_query(const QueryTaskSamples& query);

}  // namespace ysmart::obs
