#include "mr/engine.h"

#include <algorithm>
#include <memory>

#include "common/error.h"
#include "common/strings.h"
#include "mr/shuffle.h"
#include "obs/obs.h"

namespace ysmart {

namespace {

/// One map task = one block of one input file.
struct MapTaskDef {
  const DfsFile* file = nullptr;
  const DfsBlock* block = nullptr;
  int input_tag = 0;
  int scheduled_node = 0;  // node the TaskTracker runs the task on
};

/// A map task's emitter: serializes each pair into its reduce partition's
/// arena (mr/shuffle.h) and counts its wire bytes per partition with the
/// job's tag encoding. The pair's Rows are freed when emit returns.
class PartitioningEmitter final : public MapEmitter {
 public:
  PartitioningEmitter(int num_partitions, const MRJobSpec& spec)
      : spec_(spec),
        buffer_(static_cast<std::size_t>(num_partitions)),
        bucket_bytes_(static_cast<std::size_t>(num_partitions)) {}

  void emit(KeyValue kv) override {
    ++records_;
    bucket_bytes_[buffer_.add(kv)] +=
        kv_byte_size(kv, spec_.num_merged_jobs, spec_.tag_encoding);
  }

  std::vector<MapOutput> take_outputs() { return buffer_.take(); }
  /// Exact wire bytes emitted into each partition (pre-expansion).
  std::vector<std::uint64_t> take_bucket_bytes() { return std::move(bucket_bytes_); }
  std::uint64_t records() const { return records_; }

 private:
  const MRJobSpec& spec_;
  MapOutputBuffer buffer_;
  std::vector<std::uint64_t> bucket_bytes_;
  std::uint64_t records_ = 0;
};

struct MapTaskResult {
  std::vector<MapOutput> outputs;  // one per reduce partition
  obs::TaskSample task;  // measured work + charged sim seconds
};

/// Collects reduce output rows per job output. One instance exists per
/// reduce partition so partitions can run concurrently; the engine
/// concatenates the partition tables in partition order afterwards.
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
    tables_[static_cast<std::size_t>(output_idx)]->append(std::move(row));
  }

  std::vector<std::shared_ptr<Table>>& tables() { return tables_; }

 private:
  std::vector<std::shared_ptr<Table>> tables_;
};

/// Runs one map task and costs it: every attempt (the successful one plus
/// simulated failures, decided by the engine before fan-out) is paid.
MapTaskResult run_map_task(const MRJobSpec& spec, const MapTaskDef& task,
                           int num_partitions, const ClusterConfig& cfg,
                           const CostModel& cost, int attempts) {
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

  auto& t = res.task;
  t.node = task.scheduled_node;
  t.input_bytes = task.block->bytes;
  t.input_records = task.block->row_count;
  t.output_records = emitter.records();
  // One row of the cluster view's shuffle traffic matrix.
  t.partition_bytes = emitter.take_bucket_bytes();
  std::uint64_t raw = 0;
  for (std::uint64_t b : t.partition_bytes) raw += b;
  if (!spec.make_reducer) t.partition_bytes.clear();  // map-only: no shuffle
  t.output_bytes =
      static_cast<std::uint64_t>(raw * spec.intermediate_expansion);
  const auto& replicas = task.block->replica_nodes;
  t.local_read = std::find(replicas.begin(), replicas.end(),
                           task.scheduled_node) != replicas.end();
  const MapTaskWork w{
      t.input_bytes, t.input_records, t.output_records, t.output_bytes,
      cfg.compression.enabled
          ? static_cast<std::uint64_t>(t.output_bytes * cfg.compression.ratio)
          : t.output_bytes,
      t.local_read};
  t.attempts = attempts;
  t.sim_seconds = attempts * cost.map_task_seconds(w, spec.map_cpu_multiplier);
  res.outputs = emitter.take_outputs();
  return res;
}

/// Everything one reduce partition produces; folded into JobMetrics, the
/// job record and the DFS output tables in fixed partition order by the
/// caller.
struct PartitionResult {
  obs::TaskSample task;  // measured work + charged sim seconds
  std::vector<std::shared_ptr<Table>> tables;  // one per job output
  obs::SpaceSaving hot_keys;  // reduce keys weighted by records
};

/// Runs one reduce partition over its input, already sorted in the
/// engine's shuffle-sort pass so the two phases have distinct wall-clock
/// spans. `wire_bytes` is the exact per-pair wire total the map side
/// emitted into this partition (the traffic matrix's column sum).
/// `empty_key_partition` is passed on to Reducer::finish. The hot-key
/// sketch formats every group key, so it is kept only when
/// `sketch_hot_keys` (an observer is attached); nothing it holds feeds
/// back into the work or the costs.
PartitionResult run_reduce_partition(const MRJobSpec& spec, PartitionRuns runs,
                                     std::span<const ShuffleRef> sorted,
                                     std::uint64_t wire_bytes,
                                     const ClusterConfig& cfg,
                                     const CostModel& cost,
                                     double reducer_scale, int attempts,
                                     bool empty_key_partition,
                                     bool sketch_hot_keys) {
  PartitionResult res;
  auto& t = res.task;
  for (const ShuffleRef& r : sorted) {
    const std::uint8_t source = r.source();
    if (t.tag_records.size() <= source) t.tag_records.resize(source + 1u);
    ++t.tag_records[source];
  }
  t.shuffle_bytes_prescale = wire_bytes;
  t.shuffle_bytes_raw =
      static_cast<std::uint64_t>(wire_bytes * spec.intermediate_expansion);
  t.shuffle_bytes_wire =
      cfg.compression.enabled
          ? static_cast<std::uint64_t>(t.shuffle_bytes_raw *
                                       cfg.compression.ratio)
          : t.shuffle_bytes_raw;
  t.input_bytes = t.shuffle_bytes_raw;
  t.input_records = sorted.size();

  CollectingReduceEmitter emitter(spec.outputs);
  auto reducer = spec.make_reducer();
  check(reducer != nullptr, "reducer factory returned null");
  for_each_key_group(runs, sorted,
                     [&](const Row& key, std::span<const KeyValue> values) {
                       ++t.key_groups;
                       if (sketch_hot_keys)
                         res.hot_keys.offer(row_to_string(key), values.size());
                       reducer->reduce(key, values, emitter);
                     });
  reducer->finish(empty_key_partition, emitter);
  res.tables = std::move(emitter.tables());
  for (const auto& table : res.tables) {
    t.output_records += table->row_count();
    t.output_bytes += table->byte_size();
  }

  // Model the cost of one of the cluster's real reduce tasks: this sim
  // partition stands for 1/reducer_scale of them, each carrying a
  // reducer_scale share of its data. Every attempt (the successful one
  // plus simulated failures, decided by the engine before fan-out) pays
  // the full task cost.
  auto share = [reducer_scale](std::uint64_t v) {
    return static_cast<std::uint64_t>(v * reducer_scale);
  };
  const ReduceTaskWork real_task{
      share(t.shuffle_bytes_raw), share(t.shuffle_bytes_wire),
      share(t.input_records), share(t.output_records), share(t.output_bytes)};
  t.attempts = attempts;
  t.sim_seconds = attempts * cost.reduce_task_seconds(
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
  // The first failure is the job's reason; later ones change nothing.
  auto fail = [&m](std::string reason) {
    if (!m.failed) m.fail_reason = std::move(reason);
    m.failed = true;
  };
  const bool map_only = !spec.make_reducer;
  // The job record (obs/task_samples.h), filled as the job is measured
  // and costed; observe() (obs/obs.h) projects it onto an observer.
  obs::JobTaskSamples js;
  js.job_name = spec.name;
  js.map_only = map_only;
  js.key_columns = spec.key_column_names;
  js.worker_nodes = cfg_.worker_nodes;
  obs::ScopedSpan job_span(obs_, "job:" + spec.name, "job");
  js.job_span = job_span.id();

  // ---- contention: scheduling delay and reduced slot availability ----
  if (cfg_.contention.enabled) {
    m.sched_delay_s = contention_rng_.exponential(cfg_.contention.mean_sched_delay_s);
    js.slot_share = cfg_.contention.min_slot_share +
                    contention_rng_.uniform01() * (cfg_.contention.max_slot_share -
                                                   cfg_.contention.min_slot_share);
  }
  // Effective (post-contention) slots: what the makespans are fed.
  js.map_slots =
      std::max(1, static_cast<int>(cfg_.total_map_slots() * js.slot_share));
  js.reduce_slots =
      std::max(1, static_cast<int>(cfg_.total_reduce_slots() * js.slot_share));

  // ---- build map task list ----
  // Round-robin TaskTracker assignment; block placement is also
  // round-robin, so locality emerges naturally (mostly local when
  // replication covers the schedule).
  std::vector<MapTaskDef> tasks;
  for (const auto& in : spec.inputs) {
    const DfsFile& f = dfs_.file(in.path);
    for (const auto& b : f.blocks)
      tasks.push_back({&f, &b, in.input_tag,
                       static_cast<int>(tasks.size() % cfg_.worker_nodes)});
  }

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
  js.map_tasks.resize(tasks.size());
  js.reduce_tasks.resize(map_only ? 0 : static_cast<std::size_t>(num_reducers));
  obs::observe(obs_, obs::JobPoint::Start, js, m);

  // ---- execute map tasks on the shared thread pool ----
  // Failure-retry draws happen here, in task order on this thread (and
  // the reduce partitions' below, in partition order), so the RNG stream
  // (and thus every simulated second) is independent of pool size and
  // scheduling order.
  std::vector<AttemptPlan> map_plans(tasks.size());
  for (auto& plan : map_plans) plan = draw_attempts();
  std::vector<MapTaskResult> results(tasks.size());
  {
    obs::PhaseScope map_phase(obs_, spec.name, "map");
    js.map_span = map_phase.id();
    pool_->parallel_for(tasks.size(), /*grain=*/0,
                        [&](std::size_t begin, std::size_t end) {
                          obs::TaskClock tc(map_phase.agg());
                          for (std::size_t i = begin; i < end; ++i)
                            results[i] = run_map_task(
                                spec, tasks[i], num_reducers, cfg_, cost_,
                                map_plans[i].attempts);
                        });
  }

  // ---- aggregate map task metrics in fixed task order ----
  std::vector<double> map_task_times;
  for (std::size_t i = 0; i < results.size(); ++i) {
    auto& t = js.map_tasks[i] = std::move(results[i].task);
    t.index = static_cast<int>(i);
    t.exhausted = map_plans[i].exhausted;
    m.map.input_records += t.input_records;
    m.map.input_bytes += t.input_bytes;
    m.map.output_records += t.output_records;
    m.map.output_bytes += t.output_bytes;
    if (!t.local_read) m.remote_read_bytes += t.input_bytes;
    map_task_times.push_back(t.sim_seconds);
    if (t.exhausted)
      fail(strf("map task %zu failed %d consecutive attempts "
                "(task_failure_rate=%.2f)",
                i, kMaxTaskAttempts, cfg_.task_failure_rate));
  }
  m.map.tasks = results.size();
  m.map_time_s = CostModel::makespan(map_task_times, js.map_slots);
  obs::observe(obs_, obs::JobPoint::MapDone, js, m);

  // Intermediate-disk capacity check (how Pig's Q-CSA run died: the
  // intermediate results outgrew the test machines' disks). Hadoop keeps
  // roughly four transient copies of the map output on local disks at
  // peak: the sorted spills and their merge on the map side, and the
  // fetched copies plus their merge on the reduce side.
  constexpr double kMaterializationCopies = 4.0;
  const double stored_sim_bytes = static_cast<double>(m.map.output_bytes) *
                                  kMaterializationCopies * cfg_.sim_scale;
  const double capacity =
      static_cast<double>(cfg_.local_disk_capacity_bytes) * cfg_.worker_nodes;
  if (stored_sim_bytes > capacity)
    fail(strf(
        "intermediate data (%.1f GB) exceeds local disk capacity (%.1f GB)",
        stored_sim_bytes / (1024.0 * 1024 * 1024),
        capacity / (1024.0 * 1024 * 1024)));

  std::vector<PartitionResult> parts(js.reduce_tasks.size());
  if (!map_only) {
    // ---- shuffle + reduce, partitions in parallel on the pool ----
    std::vector<AttemptPlan> plans(parts.size());
    for (auto& plan : plans) plan = draw_attempts();

    // Pass 1, shuffle-sort: gather each partition's index entries from
    // every map task and sort them once, in place of Hadoop's map-side
    // sort plus reduce-side merge. Split from the reduce pass so each
    // gets its own wall-clock span. On the simulated axis the cost model
    // still charges the sort to map tasks and the merge to reduce tasks,
    // so the shuffle-sort span is wall-only.
    std::vector<std::vector<const MapOutput*>> runs(
        parts.size(), std::vector<const MapOutput*>(results.size()));
    for (std::size_t p = 0; p < parts.size(); ++p)
      for (std::size_t i = 0; i < results.size(); ++i)
        runs[p][i] = &results[i].outputs[p];
    std::vector<std::vector<ShuffleRef>> sorted(parts.size());
    {
      obs::PhaseScope sort_phase(obs_, spec.name, "shuffle-sort");
      pool_->parallel_for(parts.size(), /*grain=*/1,
                          [&](std::size_t begin, std::size_t end) {
                            obs::TaskClock tc(sort_phase.agg());
                            for (std::size_t p = begin; p < end; ++p)
                              sorted[p] = sort_partition(runs[p]);
                          });
    }

    // Pass 2, reduce: run each partition's reducer over its sorted input.
    std::vector<std::uint64_t> wire_bytes(parts.size());
    for (const auto& t : js.map_tasks)
      for (std::size_t p = 0; p < parts.size(); ++p)
        wire_bytes[p] += t.partition_bytes[p];
    const std::size_t empty_key_part = empty_key_partition(parts.size());
    {
      obs::PhaseScope reduce_phase(obs_, spec.name, "reduce");
      js.reduce_span = reduce_phase.id();
      pool_->parallel_for(
          parts.size(), /*grain=*/1, [&](std::size_t begin, std::size_t end) {
            obs::TaskClock tc(reduce_phase.agg());
            for (std::size_t p = begin; p < end; ++p)
              parts[p] = run_reduce_partition(
                  spec, runs[p], sorted[p], wire_bytes[p], cfg_, cost_,
                  reducer_scale, plans[p].attempts, p == empty_key_part,
                  obs_ != nullptr);
          });
    }

    // ---- aggregate partition metrics in fixed partition order ----
    for (std::size_t p = 0; p < parts.size(); ++p) {
      auto& t = js.reduce_tasks[p] = std::move(parts[p].task);
      // Deterministic reduce-partition placement: partition p runs on
      // node p % worker_nodes (the convention in task_samples.h).
      t.index = static_cast<int>(p);
      t.node = static_cast<int>(p % cfg_.worker_nodes);
      t.exhausted = plans[p].exhausted;
      m.shuffle_bytes_raw += t.shuffle_bytes_raw;
      m.shuffle_bytes_wire += t.shuffle_bytes_wire;
      m.reduce.input_records += t.input_records;
      m.reduce.input_bytes += t.shuffle_bytes_raw;
      // Per-partition sketches fold in fixed partition order, keeping the
      // merged sketch deterministic at any pool size.
      js.hot_keys.merge(parts[p].hot_keys);
      if (t.exhausted)
        fail(strf("reduce partition %zu failed %d consecutive attempts "
                  "(task_failure_rate=%.2f)",
                  p, kMaxTaskAttempts, cfg_.task_failure_rate));
    }
    m.reduce.tasks = static_cast<std::uint64_t>(target_reducers);
    // Expand to the real task count: modeled task i is simulated
    // partition i % num_reducers, which stands for ~1/reducer_scale of them.
    std::vector<double> reduce_task_times;
    for (int i = 0; i < target_reducers; ++i)
      reduce_task_times.push_back(
          js.reduce_tasks[static_cast<std::size_t>(i % num_reducers)].sim_seconds);
    m.reduce_time_s = CostModel::makespan(reduce_task_times, js.reduce_slots);
  }

  // ---- write outputs ----
  {
    obs::PhaseScope post_phase(obs_, spec.name, "post-job");
    obs::TaskClock tc(post_phase.agg());
    if (map_only) {
      // Map output rows go straight to DFS output 0 (value part). The
      // job's final output is the map phase's output (m.map.output_*);
      // reduce metrics stay zero — see the convention note in metrics.h.
      // Values go out in task order, each task's sorted by (key, source,
      // emit seq) as a map-side sort would leave them.
      auto out = std::make_shared<Table>(spec.outputs[0].schema);
      for (const auto& r : results) {
        const MapOutput* run = &r.outputs[0];
        for (const ShuffleRef& ref : sort_partition({&run, 1})) {
          Row value;
          run->decode_value(run->index[ref.pos], value);
          out->append(std::move(value));
        }
      }
      m.dfs_write_bytes = out->byte_size() * cfg_.replication;
      dfs_.write(spec.outputs[0].path, std::move(out));
    }
    // Reduce output: concatenate partition tables in partition order.
    for (std::size_t i = 0; i < spec.outputs.size() && !map_only; ++i) {
      auto t = std::make_shared<Table>(spec.outputs[i].schema);
      for (auto& pr : parts)
        for (auto& row : pr.tables[i]->mutable_rows()) t->append(std::move(row));
      m.reduce.output_records += t->row_count();
      m.reduce.output_bytes += t->byte_size();
      m.dfs_write_bytes += t->byte_size() * cfg_.replication;
      dfs_.write(spec.outputs[i].path, std::move(t));
    }
  }
  obs::observe(obs_, obs::JobPoint::Done, js, m);
  return m;
}

}  // namespace ysmart
