// Per-task telemetry samples: the engine's per-job record.
//
// Each map task and reduce partition measures and costs its own work as
// a TaskSample, and the engine folds those into JobMetrics and into one
// JobTaskSamples per job — plus the job's phase span ids, sim start and
// slot shape — whether or not an observer is attached. With an
// ObsContext attached, obs::observe() projects that record onto every
// surface (obs/obs.h) and keeps it here, so the analyzer
// (obs/analyzer.h) can reason about skew, stragglers and hot keys after
// the fact; without one the record is dropped at job end.
//
// Conventions:
//  * The engine's orchestrating thread gathers samples in fixed
//    task/partition order, so the store's contents are deterministic for
//    a fixed seed at any thread-pool size (pinned by test_robustness).
//  * Map-only jobs follow the metrics.h convention: their final output
//    appears in the map samples and `reduce_tasks` stays empty.
//  * Reduce samples exist per *simulated* partition (at most
//    Engine::kMaxSimReducers); `target_reduce_tasks` records the real
//    modeled task count the partition times were expanded to (modeled
//    task i ran as sample i % partitions).
//  * `tag_records` is the per-source-tag record distribution of a CMF
//    common job's reduce input — the per-merged-job view the paper's
//    Fig. 9 discussion reasons about. Plain jobs have a single tag.
//  * The observed query lifecycle groups into queries: Database::run
//    opens a new group and closes it when the query is done; standalone
//    Engine::run calls outside a query share one implicit group, opened
//    by the first of them. The DAG executor stamps each job with its
//    dependency-wave index (-1 when no executor was involved) and keeps
//    each finished wave's record, its elapsed time, with the group.
//  * Node identity (the cluster axis, obs/cluster_view.h): a map task
//    runs on its round-robin TaskTracker node (task index %
//    worker_nodes, the same assignment the engine uses for the locality
//    check); a reduce *partition* p is assigned node p % worker_nodes.
//    Reduce assignment is per simulated partition, not per modeled
//    task, so on clusters with more nodes than Engine::kMaxSimReducers
//    the reduce work concentrates on the first kMaxSimReducers nodes —
//    a documented artifact of the partition cap, like the map-only
//    output convention above.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/heavy_hitters.h"

namespace ysmart::obs {

struct TaskSample {
  int index = 0;  // map task index, or simulated reduce partition index
  /// Simulated node the task ran on (see the node-identity convention
  /// above): map tasks carry their scheduled TaskTracker node, reduce
  /// samples carry partition % worker_nodes.
  int node = 0;

  std::uint64_t input_records = 0;
  std::uint64_t input_bytes = 0;  // map: block bytes; reduce: shuffle raw
  std::uint64_t output_records = 0;
  std::uint64_t output_bytes = 0;

  // Reduce only: this partition's share of the map->reduce transfer.
  std::uint64_t shuffle_bytes_raw = 0;
  std::uint64_t shuffle_bytes_wire = 0;
  /// Reduce only: the partition's shuffle bytes *before* the
  /// intermediate-expansion scaling — the exact sum of the map-side
  /// per-pair wire sizes, so it equals the matching column of the
  /// map-task partition_bytes matrix below to the byte.
  std::uint64_t shuffle_bytes_prescale = 0;

  /// Simulated seconds charged for the task, including every simulated
  /// failure attempt (matches the value fed to the makespan).
  double sim_seconds = 0;
  int attempts = 1;  // 1 = clean run; attempts-1 = retries
  bool exhausted = false;  // the last allowed attempt failed too

  bool local_read = true;          // map only: block read from a local replica
  std::uint64_t key_groups = 0;    // reduce only: distinct keys in partition
  std::vector<std::uint64_t> tag_records;  // reduce only: records per source tag

  /// Map only (reduce jobs): exact wire bytes this task emitted into each
  /// simulated reduce partition, pre-expansion — the row of the shuffle
  /// traffic matrix. Empty for map-only jobs.
  std::vector<std::uint64_t> partition_bytes;
};

struct JobTaskSamples {
  std::string job_name;
  int wave = -1;  // dependency-wave index; -1 = standalone engine run
  bool map_only = false;
  bool failed = false;

  /// Where the job sits on the simulated timeline (the tracer's cursor
  /// when it started), and the tracer spans its phases landed in (-1
  /// without an observer).
  double sim_start_s = 0;
  int job_span = -1;
  int map_span = -1;
  int reduce_span = -1;

  // Simulated phase times, identical to the JobMetrics fields.
  double sched_delay_s = 0;
  double map_time_s = 0;
  double reduce_time_s = 0;

  /// Real modeled reduce task count (JobMetrics::reduce.tasks); the
  /// simulator executes reduce_tasks.size() partitions standing for it.
  std::uint64_t target_reduce_tasks = 0;

  /// Cluster shape the job ran against: node count and the *effective*
  /// (post-contention) slot counts the engine fed to the makespan —
  /// what the cluster-view timeline replays and the underfilled-wave
  /// check compares task counts to.
  int worker_nodes = 1;
  int map_slots = 1;
  int reduce_slots = 1;
  double slot_share = 1;  // contention's share of the slots (sched span arg)

  /// Reduce key column names when the job's spec carries them (CMF fills
  /// them from the partition-key expressions); used to render hot keys.
  std::vector<std::string> key_columns;

  std::vector<TaskSample> map_tasks;
  std::vector<TaskSample> reduce_tasks;  // per simulated partition

  /// Space-Saving sketch over reduce keys, weighted by records per key
  /// group; per-partition sketches merged in partition order.
  SpaceSaving hot_keys;

  double total_time_s() const {
    return sched_delay_s + map_time_s + reduce_time_s;
  }
};

/// The DAG executor's record of one finished dependency wave.
struct WaveSample {
  int index = 0;
  double elapsed_s = 0;  // its slowest job's total, as the executor took it
};

struct QueryTaskSamples {
  std::vector<JobTaskSamples> jobs;
  std::vector<WaveSample> waves;  // in execution order
};

/// One wave of a query's jobs, laid out on the query's simulated timeline.
struct QueryWave {
  /// The executor's wave index; a standalone job (wave -1) forms its own
  /// wave, numbered by its position in QueryTaskSamples::jobs.
  int index = 0;
  std::size_t first = 0, end = 0;  // its jobs: jobs[first, end)
  double elapsed_s = 0;  // the executor's record; a standalone job's total
  double start_s = 0;    // running sum of the earlier waves' elapsed times
};

/// The query's jobs grouped into waves, in execution order. The last
/// wave ends at start_s + elapsed_s: the same sum, in the same order, as
/// the executor's QueryMetrics::wall_time_s. Throws InternalError when a
/// job names a wave that has no record.
std::vector<QueryWave> query_waves(const QueryTaskSamples& query);

/// Thread-safe container of sampled queries; owned by ObsContext.
class TaskSampleStore {
 public:
  /// Open a new query group (Database::run). Resets the wave cursor.
  void begin_query();
  /// Close the current query group and reset the wave cursor: a later
  /// standalone engine run opens an implicit group of its own.
  void end_query();

  /// Stamp subsequent record_job() calls with dependency wave `wave`.
  void set_current_wave(int wave);

  /// Append one executed job's samples to the open group (opening an
  /// implicit group for a standalone engine run outside a query).
  void record_job(JobTaskSamples samples);

  /// Append one finished wave's record to the open group.
  void record_wave(WaveSample wave);

  std::size_t query_count() const;
  std::size_t total_jobs() const;
  QueryTaskSamples query(std::size_t index) const;  // snapshot copy
  QueryTaskSamples last_query() const;              // empty if none

  void clear();

 private:
  QueryTaskSamples& open_group();  // callers hold mu_

  mutable std::mutex mu_;
  std::vector<QueryTaskSamples> queries_;
  bool group_open_ = false;
  int current_wave_ = -1;
};

}  // namespace ysmart::obs
