#include "mr/engine.h"

#include <algorithm>
#include <memory>

#include "common/error.h"
#include "common/normkey.h"
#include "common/strings.h"
#include "mr/shuffle.h"
#include "obs/obs.h"

namespace ysmart {

namespace {

/// Stragglers so far, by the analyzer's rule: tasks above twice the
/// lower median, in phases with at least two tasks. Computed on the
/// orchestrating thread at phase end for the progress tracker.
int count_stragglers(const std::vector<double>& times) {
  if (times.size() < 2) return 0;
  std::vector<double> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[(sorted.size() - 1) / 2];
  if (median <= 0) return 0;
  int n = 0;
  for (double t : times)
    if (t > 2.0 * median) ++n;
  return n;
}

/// One map task = one block of one input file.
struct MapTaskDef {
  const DfsFile* file = nullptr;
  const DfsBlock* block = nullptr;
  int input_tag = 0;
  int scheduled_node = 0;  // node the TaskTracker runs the task on
};

/// Buffered map emitter: encodes each pair's normalized key once,
/// partitions by one hash over those bytes, and counts bytes with the
/// job's tag encoding (the wire encoding of the Row key — the cached
/// normalized key is never charged).
class PartitioningEmitter final : public MapEmitter {
 public:
  PartitioningEmitter(int num_partitions, const MRJobSpec& spec)
      : spec_(spec), buckets_(static_cast<std::size_t>(num_partitions)) {}

  void emit(KeyValue kv) override {
    bytes_ += kv_byte_size(kv, spec_.num_merged_jobs, spec_.tag_encoding);
    ++records_;
    // Mappers that already hold the normalized key (e.g. the CombineAgg
    // hash-aggregation keyed by it) pass it through; everyone else gets
    // it encoded here, once per pair. An empty norm_key only ever means
    // "not encoded yet": the empty Row key also encodes to empty bytes.
    if (kv.norm_key.empty()) kv.norm_key = encode_norm_key(kv.key);
    const std::size_t p = shuffle_partition(kv, buckets_.size());
    kv.seq = static_cast<std::uint32_t>(buckets_[p].size());
    buckets_[p].push_back(std::move(kv));
  }

  std::vector<std::vector<KeyValue>> take_buckets() { return std::move(buckets_); }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t records() const { return records_; }

 private:
  const MRJobSpec& spec_;
  std::vector<std::vector<KeyValue>> buckets_;
  std::uint64_t bytes_ = 0;
  std::uint64_t records_ = 0;
};

struct MapTaskResult {
  std::vector<std::vector<KeyValue>> buckets;
  MapTaskWork work;
};

/// Collects reduce output rows per job output and counts bytes. One
/// instance exists per reduce partition so partitions can run
/// concurrently; the engine concatenates the partition tables in
/// partition order afterwards.
class CollectingReduceEmitter final : public ReduceEmitter {
 public:
  explicit CollectingReduceEmitter(const std::vector<JobOutput>& outputs) {
    for (const auto& o : outputs)
      tables_.push_back(std::make_shared<Table>(o.schema));
  }

  void emit_to(int output_idx, Row row) override {
    check(output_idx >= 0 &&
              static_cast<std::size_t>(output_idx) < tables_.size(),
          "reduce emitted to unknown output index");
    bytes_ += row_byte_size(row);
    ++records_;
    tables_[static_cast<std::size_t>(output_idx)]->append(std::move(row));
  }

  std::vector<std::shared_ptr<Table>>& tables() { return tables_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t records() const { return records_; }

 private:
  std::vector<std::shared_ptr<Table>> tables_;
  std::uint64_t bytes_ = 0;
  std::uint64_t records_ = 0;
};

MapTaskResult run_map_task(const MRJobSpec& spec, const MapTaskDef& task,
                           int num_partitions) {
  MapTaskResult res;
  PartitioningEmitter emitter(num_partitions, spec);
  auto mapper = spec.make_mapper();
  check(mapper != nullptr, "job has no mapper");
  const auto& rows = task.file->table->rows();
  const std::size_t end = task.block->first_row + task.block->row_count;
  if (vectorized_enabled() && mapper->supports_batches()) {
    // Feed the split as column batches; map_batch is contractually
    // emission-identical to per-record map(), so the shuffle (and thus
    // the simulated metrics) cannot tell the modes apart.
    const std::span<const Row> split(rows.data() + task.block->first_row,
                                     task.block->row_count);
    for (std::size_t base = 0; base < split.size();
         base += ColumnBatch::kBatchRows) {
      const std::size_t n =
          std::min(ColumnBatch::kBatchRows, split.size() - base);
      ColumnBatch batch(split.subspan(base, n));
      mapper->map_batch(batch, task.input_tag, emitter);
    }
  } else {
    for (std::size_t i = task.block->first_row; i < end; ++i)
      mapper->map(rows[i], task.input_tag, emitter);
  }
  mapper->finish(emitter);

  res.work.input_bytes = task.block->bytes;
  res.work.input_records = task.block->row_count;
  res.work.output_records = emitter.records();
  res.work.output_bytes_raw = emitter.bytes();
  res.work.local_read =
      std::find(task.block->replica_nodes.begin(),
                task.block->replica_nodes.end(),
                task.scheduled_node) != task.block->replica_nodes.end();
  res.buckets = emitter.take_buckets();
  // Sort each partition by key (the map-side sort in Hadoop), on the
  // raw comparator over the cached normalized keys (mr/shuffle.h).
  for (auto& b : res.buckets) sort_map_bucket(b);
  return res;
}

/// K-way merge of the map tasks' already-sorted partition-`p` buckets
/// (the reduce-side merge in Hadoop). Ties are broken by map task index,
/// and within one bucket the order is preserved, so the output is exactly
/// what concatenating in task order and stable-sorting would produce —
/// without re-sorting sorted runs. The comparisons run over the cached
/// normalized keys (mr/shuffle.h).
std::vector<KeyValue> merge_sorted_buckets(std::vector<MapTaskResult>& results,
                                           std::size_t p) {
  std::vector<std::vector<KeyValue>*> runs;
  runs.reserve(results.size());
  for (auto& r : results) runs.push_back(&r.buckets[p]);
  return merge_sorted_runs(runs);
}

/// Everything one reduce partition produces; aggregated into JobMetrics
/// and the DFS output tables in fixed partition order by the caller.
struct PartitionResult {
  ReduceTaskWork work;
  double task_seconds = 0;
  std::vector<std::shared_ptr<Table>> tables;  // one per job output

  // Telemetry (filled only when the engine samples, i.e. obs attached).
  std::uint64_t key_groups = 0;
  std::uint64_t shuffle_bytes_prescale = 0;  // pre-expansion shuffle sum
  std::vector<std::uint64_t> tag_records;  // records per map source tag
  obs::SpaceSaving hot_keys;               // reduce keys weighted by records
};

/// Runs one reduce partition over its already-merged (shuffle-sorted)
/// input. The merge itself happens in the engine's shuffle-sort pass so
/// the two phases have distinct wall-clock spans. `empty_key_partition`
/// is passed on to Reducer::finish. When `sample` is set
/// the partition additionally retains key-group/tag/hot-key telemetry;
/// nothing sampled feeds back into the work measurements or costs.
PartitionResult run_reduce_partition(const MRJobSpec& spec,
                                     std::vector<KeyValue> part,
                                     const ClusterConfig& cfg,
                                     const CostModel& cost,
                                     double reducer_scale, int attempts,
                                     bool empty_key_partition, bool sample) {
  PartitionResult res;
  ReduceTaskWork& w = res.work;
  for (const auto& kv : part)
    w.shuffle_bytes_raw +=
        kv_byte_size(kv, spec.num_merged_jobs, spec.tag_encoding);
  // The pre-expansion sum is the exact per-pair wire total the map side
  // emitted into this partition — the cluster view's traffic-matrix
  // column sum (exact uint64 arithmetic, no scaling).
  res.shuffle_bytes_prescale = w.shuffle_bytes_raw;
  w.shuffle_bytes_raw = static_cast<std::uint64_t>(
      w.shuffle_bytes_raw * spec.intermediate_expansion);
  w.shuffle_bytes_wire =
      cfg.compression.enabled
          ? static_cast<std::uint64_t>(w.shuffle_bytes_raw *
                                       cfg.compression.ratio)
          : w.shuffle_bytes_raw;
  w.input_records = part.size();

  CollectingReduceEmitter emitter(spec.outputs);
  auto reducer = spec.make_reducer();
  check(reducer != nullptr, "reducer factory returned null");
  std::size_t i = 0;
  while (i < part.size()) {
    std::size_t j = i + 1;
    // Key-group boundary detection: byte equality of the cached
    // normalized keys instead of re-comparing Rows cell by cell.
    while (j < part.size() && same_shuffle_key(part[i], part[j])) ++j;
    if (sample) {
      ++res.key_groups;
      res.hot_keys.offer(row_to_string(part[i].key), j - i);
      for (std::size_t k = i; k < j; ++k) {
        const std::size_t tag = part[k].source;
        if (res.tag_records.size() <= tag) res.tag_records.resize(tag + 1);
        ++res.tag_records[tag];
      }
    }
    reducer->reduce(part[i].key,
                    std::span<const KeyValue>(part.data() + i, j - i),
                    emitter);
    i = j;
  }
  reducer->finish(empty_key_partition, emitter);
  w.output_records = emitter.records();
  w.output_bytes = emitter.bytes();
  res.tables = std::move(emitter.tables());

  // Model the cost of one of the cluster's real reduce tasks: this sim
  // partition stands for 1/reducer_scale of them, each carrying a
  // reducer_scale share of its data.
  ReduceTaskWork real_task = w;
  real_task.shuffle_bytes_raw =
      static_cast<std::uint64_t>(w.shuffle_bytes_raw * reducer_scale);
  real_task.shuffle_bytes_wire =
      static_cast<std::uint64_t>(w.shuffle_bytes_wire * reducer_scale);
  real_task.input_records =
      static_cast<std::uint64_t>(w.input_records * reducer_scale);
  real_task.output_records =
      static_cast<std::uint64_t>(w.output_records * reducer_scale);
  real_task.output_bytes =
      static_cast<std::uint64_t>(w.output_bytes * reducer_scale);
  // Every attempt (the successful one plus simulated failures, decided by
  // the engine before fan-out) pays the full task cost.
  res.task_seconds = attempts * cost.reduce_task_seconds(
                                    real_task, spec.reduce_cpu_multiplier);
  return res;
}

}  // namespace

Engine::Engine(Dfs& dfs, ClusterConfig cfg, ThreadPool* pool)
    : dfs_(dfs),
      cfg_(std::move(cfg)),
      cost_(cfg_),
      contention_rng_(cfg_.contention.seed),
      pool_(pool ? pool : &ThreadPool::shared()) {}

Engine::AttemptPlan Engine::draw_attempts() {
  AttemptPlan plan;
  // Same RNG consumption as the historical unbounded retry loop: one
  // uniform01 draw per attempt until one succeeds — except the loop stops
  // at kMaxTaskAttempts, which keeps task_failure_rate >= 1.0 finite.
  while (cfg_.task_failure_rate > 0 &&
         contention_rng_.uniform01() < cfg_.task_failure_rate) {
    if (plan.attempts == kMaxTaskAttempts) {
      plan.exhausted = true;
      break;
    }
    ++plan.attempts;
  }
  return plan;
}

JobMetrics Engine::run(const MRJobSpec& spec) {
  check(!spec.outputs.empty(), "job needs at least one output");
  JobMetrics m;
  m.job_name = spec.name;

  // Observability: the job span and the simulated-timeline offset this
  // job starts at. Everything below is guarded by obs_ and reads only
  // values already computed for JobMetrics, so a null obs_ costs a
  // handful of branches and an attached one cannot perturb results.
  obs::ScopedSpan job_span(obs_, "job:" + spec.name, "job");
  const double sim0 = obs_ ? obs_->tracer.sim_now() : 0.0;
  std::uint64_t retries = 0;
  // Per-task samples retained for the analyzer; populated (and recorded by
  // finalize) only when an ObsContext is attached.
  obs::JobTaskSamples js;
  auto finalize = [&]() {
    if (!obs_) return;
    job_span.sim(sim0, m.total_time_s());
    job_span.arg("sched_delay_s", m.sched_delay_s);
    job_span.arg("map_time_s", m.map_time_s);
    job_span.arg("reduce_time_s", m.reduce_time_s);
    job_span.arg("shuffle_bytes_wire", m.shuffle_bytes_wire);
    job_span.arg("dfs_write_bytes", m.dfs_write_bytes);
    if (m.failed) job_span.arg("fail_reason", std::string_view(m.fail_reason));
    obs_->tracer.set_sim_now(sim0 + m.total_time_s());

    auto& reg = obs_->metrics;
    reg.add("engine.jobs.run", 1);
    reg.add("engine.map.tasks", m.map.tasks);
    reg.add("engine.map.input_bytes", m.map.input_bytes);
    reg.add("engine.map.output_bytes", m.map.output_bytes);
    reg.add("engine.map.remote_read_bytes", m.remote_read_bytes);
    reg.add("engine.shuffle.bytes_raw", m.shuffle_bytes_raw);
    reg.add("engine.shuffle.bytes_wire", m.shuffle_bytes_wire);
    reg.add("engine.reduce.tasks", m.reduce.tasks);
    reg.add("engine.reduce.output_bytes", m.reduce.output_bytes);
    reg.add("engine.dfs.write_bytes", m.dfs_write_bytes);
    reg.add("engine.tasks.retries", retries);
    if (m.failed) {
      reg.add("engine.jobs.failed", 1);
      reg.note("engine.last_fail_reason", m.job_name + ": " + m.fail_reason);
    }
    const ThreadPool::Stats ps = pool_->stats();
    reg.set("pool.tasks.submitted", ps.tasks_submitted);
    reg.set_max("pool.queue.peak_depth", ps.peak_queue_depth);
    reg.set_max("pool.workers.peak_busy", ps.peak_busy_workers);
    reg.set("pool.workers.size", pool_->size());

    js.job_name = m.job_name;
    js.map_only = !spec.make_reducer;
    js.failed = m.failed;
    js.sched_delay_s = m.sched_delay_s;
    js.map_time_s = m.map_time_s;
    js.reduce_time_s = m.reduce_time_s;
    js.target_reduce_tasks = m.reduce.tasks;
    js.key_columns = spec.key_column_names;
    obs_->samples.record_job(std::move(js));

    if (m.failed)
      obs_->events.emit(obs::EventLevel::Error, obs::EventCategory::Fault,
                        "job-failed", sim0 + m.total_time_s(),
                        {{"job", m.job_name},
                         {"reason", std::string_view(m.fail_reason)},
                         {"sim_total_s", m.total_time_s()}});
    else
      obs_->events.emit(obs::EventLevel::Info, obs::EventCategory::PostJob,
                        "job-done", sim0 + m.total_time_s(),
                        {{"job", m.job_name},
                         {"retries", retries},
                         {"dfs_write_bytes", m.dfs_write_bytes},
                         {"sim_total_s", m.total_time_s()}});
    obs_->progress.job_done(m.failed, m.total_time_s());
  };

  // ---- contention: scheduling delay and reduced slot availability ----
  double slot_share = 1.0;
  if (cfg_.contention.enabled) {
    m.sched_delay_s = contention_rng_.exponential(cfg_.contention.mean_sched_delay_s);
    slot_share = cfg_.contention.min_slot_share +
                 contention_rng_.uniform01() *
                     (cfg_.contention.max_slot_share - cfg_.contention.min_slot_share);
  }
  const int map_slots =
      std::max(1, static_cast<int>(cfg_.total_map_slots() * slot_share));
  const int reduce_slots =
      std::max(1, static_cast<int>(cfg_.total_reduce_slots() * slot_share));
  if (obs_) {
    // Cluster shape for the cluster view: node count plus the effective
    // slot counts fed to the makespan (post-contention), so the slot
    // timeline replays exactly what the schedule used.
    js.worker_nodes = cfg_.worker_nodes;
    js.map_slots = map_slots;
    js.reduce_slots = reduce_slots;
  }
  if (obs_ && m.sched_delay_s > 0) {
    // Scheduling delay exists only on the simulated axis; the span is
    // zero-width in wall-clock.
    obs::ScopedSpan sched(obs_, "sched", "phase");
    sched.sim(sim0, m.sched_delay_s);
    sched.arg("slot_share", slot_share);
  }

  // ---- build map task list ----
  std::vector<MapTaskDef> tasks;
  for (const auto& in : spec.inputs) {
    const DfsFile& f = dfs_.file(in.path);
    for (const auto& b : f.blocks) {
      MapTaskDef t;
      t.file = &f;
      t.block = &b;
      t.input_tag = in.input_tag;
      tasks.push_back(t);
    }
  }
  // Round-robin TaskTracker assignment; block placement is also
  // round-robin, so locality emerges naturally (mostly local when
  // replication covers the schedule).
  for (std::size_t i = 0; i < tasks.size(); ++i)
    tasks[i].scheduled_node = static_cast<int>(i % cfg_.worker_nodes);

  const bool map_only = !spec.make_reducer;
  // The cluster would run `target_reducers` reduce tasks; the simulator
  // executes at most kMaxSimReducers partitions and scales each
  // partition's modeled cost down by the ratio, so large clusters keep
  // their real per-task work (and their scaling behaviour) without the
  // simulator materializing thousands of partitions.
  const int target_reducers =
      map_only ? 1
               : (spec.num_reduce_tasks > 0 ? spec.num_reduce_tasks
                                            : cfg_.total_reduce_slots());
  const int num_reducers = std::min(target_reducers, kMaxSimReducers);
  const double reducer_scale =
      static_cast<double>(num_reducers) / static_cast<double>(target_reducers);

  if (obs_)
    obs_->progress.begin_job(spec.name, map_only, tasks.size(),
                             static_cast<std::size_t>(num_reducers));

  // ---- execute map tasks on the shared thread pool ----
  std::vector<MapTaskResult> results(tasks.size());
  int map_span_id = -1;
  {
    obs::ScopedSpan map_span(obs_, "map", "phase");
    map_span_id = map_span.id();
    // Host-axis accounting only: the PhaseClock/TaskClock pair reads CPU
    // clocks and thread-local counters, never sim quantities (see
    // obs/profiler.h for the non-perturbation contract).
    obs::PhaseClock map_prof(obs_ ? &obs_->profiler : nullptr, map_span_id,
                             spec.name, "map");
    pool_->parallel_for(tasks.size(), /*grain=*/0,
                        [&](std::size_t begin, std::size_t end) {
                          obs::TaskClock tc(map_prof.agg());
                          for (std::size_t i = begin; i < end; ++i)
                            results[i] = run_map_task(spec, tasks[i], num_reducers);
                        });
  }

  // ---- measure + cost the map phase ----
  std::vector<double> map_task_times;
  map_task_times.reserve(results.size());
  std::uint64_t map_out_bytes_raw = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    auto& r = results[i];
    r.work.output_bytes_raw = static_cast<std::uint64_t>(
        r.work.output_bytes_raw * spec.intermediate_expansion);
    r.work.output_bytes_wire =
        cfg_.compression.enabled
            ? static_cast<std::uint64_t>(r.work.output_bytes_raw *
                                         cfg_.compression.ratio)
            : r.work.output_bytes_raw;
    m.map.input_records += r.work.input_records;
    m.map.input_bytes += r.work.input_bytes;
    m.map.output_records += r.work.output_records;
    m.map.output_bytes += r.work.output_bytes_raw;
    if (!r.work.local_read) m.remote_read_bytes += r.work.input_bytes;
    map_out_bytes_raw += r.work.output_bytes_raw;
    // Fault tolerance: a failed attempt is re-executed from its
    // materialized input; every attempt's time is paid.
    const AttemptPlan plan = draw_attempts();
    retries += static_cast<std::uint64_t>(plan.attempts - 1);
    map_task_times.push_back(
        plan.attempts * cost_.map_task_seconds(r.work, spec.map_cpu_multiplier));
    if (obs_) {
      obs::TaskSample s;
      s.index = static_cast<int>(i);
      s.node = tasks[i].scheduled_node;
      s.input_records = r.work.input_records;
      s.input_bytes = r.work.input_bytes;
      s.output_records = r.work.output_records;
      s.output_bytes = r.work.output_bytes_raw;
      s.sim_seconds = map_task_times.back();
      s.attempts = plan.attempts;
      s.local_read = r.work.local_read;
      if (!map_only) {
        // Exact per-(task, partition) wire bytes, summed from the
        // still-alive sorted buckets before the shuffle consumes them:
        // one row of the cluster view's traffic matrix (pre-expansion,
        // so row sums match the reduce samples' prescale columns).
        s.partition_bytes.reserve(r.buckets.size());
        for (const auto& bucket : r.buckets) {
          std::uint64_t pb = 0;
          for (const auto& kv : bucket)
            pb += kv_byte_size(kv, spec.num_merged_jobs, spec.tag_encoding);
          s.partition_bytes.push_back(pb);
        }
      }
      js.map_tasks.push_back(std::move(s));
      obs_->progress.task_done(/*reduce_phase=*/false, map_task_times.back());
      // Fault-injection retries used to vanish into a counter; journal
      // every retried/exhausted task individually.
      if (plan.attempts > 1)
        obs_->events.emit(
            plan.exhausted ? obs::EventLevel::Error : obs::EventLevel::Warn,
            obs::EventCategory::Fault,
            plan.exhausted ? "task-exhausted" : "task-retry",
            sim0 + m.sched_delay_s,
            {{"job", spec.name}, {"phase", "map"},
             {"task", static_cast<std::uint64_t>(i)},
             {"attempts", plan.attempts}});
    }
    if (plan.exhausted && !m.failed) {
      m.failed = true;
      m.fail_reason =
          strf("map task %zu failed %d consecutive attempts "
               "(task_failure_rate=%.2f)",
               i, kMaxTaskAttempts, cfg_.task_failure_rate);
    }
  }
  m.map.tasks = results.size();
  m.map_time_s = CostModel::makespan(map_task_times, map_slots);
  if (obs_) {
    obs_->tracer.set_sim(map_span_id, sim0 + m.sched_delay_s, m.map_time_s);
    obs_->tracer.arg(map_span_id, "tasks", m.map.tasks);
    obs_->tracer.arg(map_span_id, "input_bytes", m.map.input_bytes);
    obs_->tracer.arg(map_span_id, "output_bytes", m.map.output_bytes);
    // Feed the histogram from the retained samples (identical values to
    // map_task_times) so registry and samples reconcile exactly.
    for (const auto& s : js.map_tasks)
      obs_->metrics.observe("engine.map.task_sim_seconds", s.sim_seconds);
    obs_->progress.phase_done(/*reduce_phase=*/false,
                              count_stragglers(map_task_times));
    obs_->events.emit(obs::EventLevel::Info, obs::EventCategory::Map,
                      "map-phase-done", sim0 + m.sched_delay_s + m.map_time_s,
                      {{"job", spec.name}, {"tasks", m.map.tasks},
                       {"input_bytes", m.map.input_bytes},
                       {"output_bytes", m.map.output_bytes},
                       {"makespan_s", m.map_time_s}});
  }

  // Intermediate-disk capacity check (how Pig's Q-CSA run died: the
  // intermediate results outgrew the test machines' disks). Hadoop keeps
  // roughly four transient copies of the map output on local disks at
  // peak: the sorted spills and their merge on the map side, and the
  // fetched copies plus their merge on the reduce side.
  constexpr double kMaterializationCopies = 4.0;
  const double stored_sim_bytes = static_cast<double>(map_out_bytes_raw) *
                                  kMaterializationCopies * cfg_.sim_scale;
  const double capacity =
      static_cast<double>(cfg_.local_disk_capacity_bytes) * cfg_.worker_nodes;
  if (stored_sim_bytes > capacity && !m.failed) {
    m.failed = true;
    m.fail_reason = strf(
        "intermediate data (%.1f GB) exceeds local disk capacity (%.1f GB)",
        stored_sim_bytes / (1024.0 * 1024 * 1024),
        capacity / (1024.0 * 1024 * 1024));
  }

  if (map_only) {
    // Map output rows go straight to DFS output 0 (value part). The
    // job's final output is the map phase's output (m.map.output_*);
    // reduce metrics stay zero — see the convention note in metrics.h.
    obs::ScopedSpan post_span(obs_, "post-job", "phase");
    obs::PhaseClock post_prof(obs_ ? &obs_->profiler : nullptr, post_span.id(),
                              spec.name, "post-job");
    obs::TaskClock post_tc(post_prof.agg());
    auto out = std::make_shared<Table>(spec.outputs[0].schema);
    for (auto& r : results)
      for (auto& bucket : r.buckets)
        for (auto& kv : bucket) out->append(std::move(kv.value));
    m.dfs_write_bytes = out->byte_size() * cfg_.replication;
    dfs_.write(spec.outputs[0].path, std::move(out));
    finalize();
    return m;
  }

  // ---- shuffle + reduce, partitions in parallel on the pool ----
  // All failure-retry draws happen here, in partition order on this
  // thread, so the RNG stream (and thus every simulated second) is
  // independent of pool size and scheduling order.
  std::vector<AttemptPlan> plans;
  plans.reserve(static_cast<std::size_t>(num_reducers));
  for (int p = 0; p < num_reducers; ++p) plans.push_back(draw_attempts());

  // Pass 1, shuffle-sort: k-way merge each partition's sorted map-side
  // buckets (Hadoop's reduce-side merge). Split from the reduce pass so
  // each gets its own wall-clock span; the merge cost on the simulated
  // axis is part of the cost model's reduce task time, so the
  // shuffle-sort span is wall-only.
  std::vector<std::vector<KeyValue>> merged(
      static_cast<std::size_t>(num_reducers));
  {
    obs::ScopedSpan sort_span(obs_, "shuffle-sort", "phase");
    obs::PhaseClock sort_prof(obs_ ? &obs_->profiler : nullptr, sort_span.id(),
                              spec.name, "shuffle-sort");
    pool_->parallel_for(static_cast<std::size_t>(num_reducers), /*grain=*/1,
                        [&](std::size_t begin, std::size_t end) {
                          obs::TaskClock tc(sort_prof.agg());
                          for (std::size_t p = begin; p < end; ++p)
                            merged[p] = merge_sorted_buckets(results, p);
                        });
  }

  // Pass 2, reduce: run each partition's reducer over its merged input.
  std::vector<PartitionResult> parts(static_cast<std::size_t>(num_reducers));
  const std::size_t empty_key_part =
      empty_key_partition(static_cast<std::size_t>(num_reducers));
  int reduce_span_id = -1;
  {
    obs::ScopedSpan reduce_span(obs_, "reduce", "phase");
    reduce_span_id = reduce_span.id();
    obs::PhaseClock reduce_prof(obs_ ? &obs_->profiler : nullptr,
                                reduce_span_id, spec.name, "reduce");
    pool_->parallel_for(
        static_cast<std::size_t>(num_reducers), /*grain=*/1,
        [&](std::size_t begin, std::size_t end) {
          obs::TaskClock tc(reduce_prof.agg());
          for (std::size_t p = begin; p < end; ++p)
            parts[p] = run_reduce_partition(
                spec, std::move(merged[p]), cfg_, cost_, reducer_scale,
                plans[p].attempts, p == empty_key_part,
                /*sample=*/obs_ != nullptr);
        });
  }

  // ---- aggregate partition metrics in fixed partition order ----
  std::vector<double> reduce_task_times;
  reduce_task_times.reserve(static_cast<std::size_t>(num_reducers));
  for (int p = 0; p < num_reducers; ++p) {
    const auto& pr = parts[static_cast<std::size_t>(p)];
    m.shuffle_bytes_raw += pr.work.shuffle_bytes_raw;
    m.shuffle_bytes_wire += pr.work.shuffle_bytes_wire;
    m.reduce.input_records += pr.work.input_records;
    m.reduce.input_bytes += pr.work.shuffle_bytes_raw;
    reduce_task_times.push_back(pr.task_seconds);
    retries += static_cast<std::uint64_t>(
        plans[static_cast<std::size_t>(p)].attempts - 1);
    if (obs_) {
      obs::TaskSample s;
      s.index = p;
      // Deterministic reduce-partition placement: partition p runs on
      // node p % worker_nodes (the convention in task_samples.h).
      s.node = p % cfg_.worker_nodes;
      s.input_records = pr.work.input_records;
      s.input_bytes = pr.work.shuffle_bytes_raw;
      s.output_records = pr.work.output_records;
      s.output_bytes = pr.work.output_bytes;
      s.shuffle_bytes_raw = pr.work.shuffle_bytes_raw;
      s.shuffle_bytes_wire = pr.work.shuffle_bytes_wire;
      s.shuffle_bytes_prescale = pr.shuffle_bytes_prescale;
      s.sim_seconds = pr.task_seconds;
      s.attempts = plans[static_cast<std::size_t>(p)].attempts;
      s.key_groups = pr.key_groups;
      s.tag_records = pr.tag_records;
      js.reduce_tasks.push_back(std::move(s));
      // Per-partition sketches fold in fixed partition order, keeping the
      // merged sketch deterministic at any pool size.
      js.hot_keys.merge(pr.hot_keys);
      obs_->progress.task_done(/*reduce_phase=*/true, pr.task_seconds);
      if (plans[static_cast<std::size_t>(p)].attempts > 1) {
        const bool exhausted = plans[static_cast<std::size_t>(p)].exhausted;
        obs_->events.emit(
            exhausted ? obs::EventLevel::Error : obs::EventLevel::Warn,
            obs::EventCategory::Fault,
            exhausted ? "task-exhausted" : "task-retry",
            sim0 + m.sched_delay_s + m.map_time_s,
            {{"job", spec.name}, {"phase", "reduce"},
             {"task", static_cast<std::uint64_t>(p)},
             {"attempts", plans[static_cast<std::size_t>(p)].attempts}});
      }
    }
    if (plans[static_cast<std::size_t>(p)].exhausted && !m.failed) {
      m.failed = true;
      m.fail_reason =
          strf("reduce partition %d failed %d consecutive attempts "
               "(task_failure_rate=%.2f)",
               p, kMaxTaskAttempts, cfg_.task_failure_rate);
    }
  }
  m.reduce.tasks = static_cast<std::uint64_t>(target_reducers);
  // Expand to the real task count: each simulated partition's time stands
  // for ~1/reducer_scale real tasks.
  if (target_reducers > num_reducers) {
    std::vector<double> expanded;
    expanded.reserve(static_cast<std::size_t>(target_reducers));
    for (int i = 0; i < target_reducers; ++i)
      expanded.push_back(
          reduce_task_times[static_cast<std::size_t>(i % num_reducers)]);
    reduce_task_times = std::move(expanded);
  }
  m.reduce_time_s = CostModel::makespan(reduce_task_times, reduce_slots);
  if (obs_) {
    // The simulated reduce time includes shuffle transfer and merge: the
    // cost model charges them per reduce task, like Hadoop's reduce-side
    // copy/sort phases being billed to the reduce task.
    obs_->tracer.set_sim(reduce_span_id, sim0 + m.sched_delay_s + m.map_time_s,
                         m.reduce_time_s);
    obs_->tracer.arg(reduce_span_id, "tasks", m.reduce.tasks);
    obs_->tracer.arg(reduce_span_id, "shuffle_bytes_wire",
                     m.shuffle_bytes_wire);
    // One histogram observation per *modeled* task, read from the retained
    // per-partition samples (task i reuses sample i % partitions — exactly
    // how reduce_task_times was expanded), so registry and samples
    // reconcile.
    for (int i = 0; i < target_reducers; ++i)
      obs_->metrics.observe(
          "engine.reduce.task_sim_seconds",
          js.reduce_tasks[static_cast<std::size_t>(i % num_reducers)]
              .sim_seconds);
    obs_->events.emit(obs::EventLevel::Info, obs::EventCategory::Shuffle,
                      "shuffle-done", sim0 + m.sched_delay_s + m.map_time_s,
                      {{"job", spec.name},
                       {"bytes_raw", m.shuffle_bytes_raw},
                       {"bytes_wire", m.shuffle_bytes_wire}});
    // Straggler detection runs over the simulated (pre-expansion)
    // partition times — expansion only repeats them.
    std::vector<double> part_times;
    part_times.reserve(js.reduce_tasks.size());
    for (const auto& s : js.reduce_tasks) part_times.push_back(s.sim_seconds);
    obs_->progress.phase_done(/*reduce_phase=*/true,
                              count_stragglers(part_times));
    obs_->events.emit(obs::EventLevel::Info, obs::EventCategory::Reduce,
                      "reduce-phase-done",
                      sim0 + m.sched_delay_s + m.map_time_s + m.reduce_time_s,
                      {{"job", spec.name}, {"tasks", m.reduce.tasks},
                       {"input_records", m.reduce.input_records},
                       {"makespan_s", m.reduce_time_s}});
  }

  // ---- write outputs: concatenate partition tables in partition order ----
  {
    obs::ScopedSpan post_span(obs_, "post-job", "phase");
    obs::PhaseClock post_prof(obs_ ? &obs_->profiler : nullptr, post_span.id(),
                              spec.name, "post-job");
    obs::TaskClock post_tc(post_prof.agg());
    for (std::size_t i = 0; i < spec.outputs.size(); ++i) {
      auto t = std::make_shared<Table>(spec.outputs[i].schema);
      for (auto& pr : parts)
        for (auto& row : pr.tables[i]->mutable_rows()) t->append(std::move(row));
      m.reduce.output_records += t->row_count();
      m.reduce.output_bytes += t->byte_size();
      m.dfs_write_bytes += t->byte_size() * cfg_.replication;
      dfs_.write(spec.outputs[i].path, std::move(t));
    }
  }
  finalize();
  return m;
}

}  // namespace ysmart
