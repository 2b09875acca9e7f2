#include "obs/obs.h"

#include "mr/metrics.h"
#include "obs/analyzer.h"

namespace ysmart::obs {

namespace {

/// Every predicted job ran, with the names in order: only then does the
/// plan view hold each prediction against its own actuals.
bool ran_as_predicted(const QueryPrediction& p, const QueryMetrics& m) {
  if (p.jobs.size() != m.jobs.size()) return false;
  for (std::size_t j = 0; j < p.jobs.size(); ++j)
    if (p.jobs[j].name != m.jobs[j].job_name) return false;
  return true;
}

/// Journals every retried or exhausted task of one phase, at `sim_s`.
void task_faults(ObsContext& obs, const std::string& job,
                 const std::vector<TaskSample>& tasks, const char* phase,
                 double sim_s) {
  for (const auto& t : tasks)
    if (t.attempts > 1)
      obs.events.emit(t.exhausted ? EventLevel::Error : EventLevel::Warn,
                      EventCategory::Fault,
                      t.exhausted ? "task-exhausted" : "task-retry", sim_s,
                      {{"job", job}, {"phase", phase},
                       {"task", static_cast<std::uint64_t>(t.index)},
                       {"attempts", t.attempts}});
}

void job_start(ObsContext& obs, JobTaskSamples& job, const JobMetrics& m) {
  job.sim_start_s = obs.tracer.sim_now();
  if (m.sched_delay_s > 0) {
    // Scheduling delay exists only on the simulated axis; the span is
    // zero-width in wall-clock.
    ScopedSpan sched(&obs, "sched", "phase");
    sched.sim(job.sim_start_s, m.sched_delay_s);
    sched.arg("slot_share", job.slot_share);
  }
}

void map_done(ObsContext& obs, const JobTaskSamples& job, const JobMetrics& m) {
  const double t0 = job.sim_start_s + m.sched_delay_s;
  obs.tracer.set_sim(job.map_span, t0, m.map_time_s);
  obs.tracer.arg(job.map_span, "tasks", m.map.tasks);
  obs.tracer.arg(job.map_span, "input_bytes", m.map.input_bytes);
  obs.tracer.arg(job.map_span, "output_bytes", m.map.output_bytes);
  task_faults(obs, job.job_name, job.map_tasks, "map", t0);
  obs.events.emit(EventLevel::Info, EventCategory::Map, "map-phase-done",
                  t0 + m.map_time_s,
                  {{"job", job.job_name}, {"tasks", m.map.tasks},
                   {"input_bytes", m.map.input_bytes},
                   {"output_bytes", m.map.output_bytes},
                   {"makespan_s", m.map_time_s}});
}

void job_done(ObsContext& obs, JobTaskSamples& job, const JobMetrics& m) {
  if (!job.map_only) {
    // The simulated reduce time includes shuffle transfer and merge: the
    // cost model charges them per reduce task, like Hadoop bills its
    // copy/sort phases to the reduce task.
    const double t0 = job.sim_start_s + m.sched_delay_s + m.map_time_s;
    obs.tracer.set_sim(job.reduce_span, t0, m.reduce_time_s);
    obs.tracer.arg(job.reduce_span, "tasks", m.reduce.tasks);
    obs.tracer.arg(job.reduce_span, "shuffle_bytes_wire", m.shuffle_bytes_wire);
    task_faults(obs, job.job_name, job.reduce_tasks, "reduce", t0);
    obs.events.emit(EventLevel::Info, EventCategory::Shuffle, "shuffle-done",
                    t0, {{"job", job.job_name},
                         {"bytes_raw", m.shuffle_bytes_raw},
                         {"bytes_wire", m.shuffle_bytes_wire}});
    obs.events.emit(EventLevel::Info, EventCategory::Reduce,
                    "reduce-phase-done", t0 + m.reduce_time_s,
                    {{"job", job.job_name}, {"tasks", m.reduce.tasks},
                     {"input_records", m.reduce.input_records},
                     {"makespan_s", m.reduce_time_s}});
  }
  const double end = job.sim_start_s + m.total_time_s();
  obs.tracer.set_sim(job.job_span, job.sim_start_s, m.total_time_s());
  obs.tracer.arg(job.job_span, "sched_delay_s", m.sched_delay_s);
  obs.tracer.arg(job.job_span, "map_time_s", m.map_time_s);
  obs.tracer.arg(job.job_span, "reduce_time_s", m.reduce_time_s);
  obs.tracer.arg(job.job_span, "shuffle_bytes_wire", m.shuffle_bytes_wire);
  obs.tracer.arg(job.job_span, "dfs_write_bytes", m.dfs_write_bytes);
  if (m.failed)
    obs.tracer.arg(job.job_span, "fail_reason",
                   std::string_view(m.fail_reason));
  if (!obs.in_wave) obs.tracer.set_sim_now(end);

  std::uint64_t retries = 0;
  for (const auto* phase : {&job.map_tasks, &job.reduce_tasks})
    for (const auto& t : *phase)
      retries += static_cast<std::uint64_t>(t.attempts - 1);
  if (m.failed)
    obs.events.emit(EventLevel::Error, EventCategory::Fault, "job-failed", end,
                    {{"job", m.job_name},
                     {"reason", std::string_view(m.fail_reason)},
                     {"sim_total_s", m.total_time_s()}});
  else
    obs.events.emit(EventLevel::Info, EventCategory::PostJob, "job-done", end,
                    {{"job", m.job_name},
                     {"retries", retries},
                     {"dfs_write_bytes", m.dfs_write_bytes},
                     {"sim_total_s", m.total_time_s()}});

  job.failed = m.failed;
  job.sched_delay_s = m.sched_delay_s;
  job.map_time_s = m.map_time_s;
  job.reduce_time_s = m.reduce_time_s;
  job.target_reduce_tasks = m.reduce.tasks;
  obs.samples.record_job(std::move(job));
}

void query_done(ObsContext& obs, QueryRecord& q) {
  const QueryMetrics* m = q.metrics;
  const QueryTaskSamples qs = obs.samples.last_query();
  obs.samples.end_query();
  const AnalyzerReport report = analyze_query(qs);
  // wall_time_s is the modeled end-to-end elapsed time (waves overlap
  // under concurrent submission); total_time_s is the serial sum. A run
  // that threw has no QueryMetrics: the jobs it completed stand in.
  const bool failed = !m || m->failed();
  const double wall = m ? m->wall_time_s : report.critical_path_s;
  const double total = m ? m->total_time_s() : report.serial_total_s;
  const auto jobs =
      static_cast<std::uint64_t>(m ? m->jobs.size() : qs.jobs.size());
  obs.tracer.set_sim(q.span, q.sim_start_s, wall);
  obs.tracer.arg(q.span, "jobs", jobs);
  obs.tracer.arg(q.span, "sim_total_s", total);
  if (failed) obs.tracer.arg(q.span, "failed", std::string_view("true"));
  obs.events.emit(failed ? EventLevel::Error : EventLevel::Info,
                  EventCategory::Schedule, "query-done", q.sim_start_s + wall,
                  {{"profile", std::string_view(q.profile)},
                   {"jobs", jobs},
                   {"sim_wall_s", wall},
                   {"failed", failed ? 1 : 0}});

  const std::chrono::duration<double, std::milli> host =
      std::chrono::steady_clock::now() - q.host_start;
  std::optional<PlanReport> plan;
  if (m && q.prediction && ran_as_predicted(*q.prediction, *m))
    plan = join_plan_actuals(*q.prediction, qs, *m);
  obs.history.add(
      {.sql = q.sql, .profile = q.profile, .jobs = static_cast<int>(jobs),
       .waves = static_cast<int>(report.waves.size()), .sim_total_s = total,
       .sim_wall_s = wall, .host_wall_ms = host.count(), .failed = failed,
       .fail_reason = m ? m->fail_reason() : q.error,
       .digest = report.diagnosis.empty() ? "ok" : report.diagnosis.front(),
       .analyzer_text = report.text(), .plan = std::move(plan)});
  obs.profiler.query_end();
}

}  // namespace

void observe(ObsContext* obs, JobPoint at, JobTaskSamples& job,
             const JobMetrics& m) {
  if (!obs) return;
  switch (at) {
    case JobPoint::Start: return job_start(*obs, job, m);
    case JobPoint::MapDone: return map_done(*obs, job, m);
    case JobPoint::Done: return job_done(*obs, job, m);
  }
}

void observe(ObsContext* obs, WavePoint at, WaveRecord& wave) {
  if (!obs) return;
  const auto index = static_cast<std::uint64_t>(wave.index);
  const auto jobs = static_cast<std::uint64_t>(wave.jobs);
  if (at == WavePoint::Start) {
    wave.sim_start_s = obs->tracer.sim_now();
    obs->in_wave = true;
    // Stamp the wave's jobs in the sample store; Done keeps the wave's
    // record next to them.
    obs->samples.set_current_wave(wave.index);
    obs->events.emit(EventLevel::Info, EventCategory::Schedule, "wave-start",
                     wave.sim_start_s, {{"wave", index}, {"jobs", jobs}});
    return;
  }
  const double end = wave.sim_start_s + wave.elapsed_s;
  obs->samples.record_wave({wave.index, wave.elapsed_s});
  obs->tracer.set_sim(wave.span, wave.sim_start_s, wave.elapsed_s);
  obs->tracer.arg(wave.span, "jobs", jobs);
  obs->tracer.set_sim_now(end);
  obs->in_wave = false;
  obs->events.emit(EventLevel::Info, EventCategory::Schedule, "wave-done", end,
                   {{"wave", index}, {"jobs", jobs},
                    {"wave_sim_s", wave.elapsed_s}});
  if (wave.aborts)
    obs->events.emit(EventLevel::Error, EventCategory::Schedule, "query-abort",
                     end, {{"pending_jobs",
                            static_cast<std::uint64_t>(wave.pending_jobs)}});
}

void observe(ObsContext* obs, QueryPoint at, QueryRecord& q) {
  if (!obs) return;
  switch (at) {
    case QueryPoint::Start:
      q.sim_start_s = obs->tracer.sim_now();
      q.host_start = std::chrono::steady_clock::now();
      obs->samples.begin_query();
      obs->profiler.query_begin();
      return;
    case QueryPoint::Translated:
      obs->events.emit(EventLevel::Info, EventCategory::Translate,
                       "query-start", q.sim_start_s,
                       {{"profile", std::string_view(q.profile)},
                        {"jobs", static_cast<std::uint64_t>(q.jobs)}});
      return;
    case QueryPoint::Done:
      return query_done(*obs, q);
  }
}

void observe_translation(ObsContext* obs, int span, const std::string& profile,
                         std::size_t jobs) {
  if (!obs) return;
  obs->tracer.arg(span, "jobs", static_cast<std::uint64_t>(jobs));
  obs->events.emit(EventLevel::Info, EventCategory::Translate, "translated",
                   obs->tracer.sim_now(),
                   {{"profile", std::string_view(profile)},
                    {"jobs", static_cast<std::uint64_t>(jobs)}});
}

}  // namespace ysmart::obs
