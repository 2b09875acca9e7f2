#include "obs/progress.h"

#include <cmath>

#include "common/strings.h"

namespace ysmart::obs {

std::size_t ProgressSnapshot::tasks_done() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += j.map.tasks_done + j.reduce.tasks_done;
  return n;
}

std::size_t ProgressSnapshot::tasks_total() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += j.map.tasks_total + j.reduce.tasks_total;
  return n;
}

std::string ProgressSnapshot::render() const {
  if (queries_started == 0) return "top: no query observed yet\n";
  std::string out;
  std::string sql_line = sql;
  for (auto& c : sql_line)
    if (c == '\n' || c == '\t') c = ' ';
  if (sql_line.size() > 60) sql_line = sql_line.substr(0, 57) + "...";
  out += strf("query: %s  (profile %s)\n", sql_line.c_str(), profile.c_str());
  out += strf("state: %s  wave %d  jobs %zu/%zu  tasks %zu/%zu\n",
              active ? "RUNNING" : (failed ? "DNF" : "done"),
              current_wave < 0 ? waves_done : current_wave, jobs_done,
              total_jobs, tasks_done(), tasks_total());
  for (const auto& j : jobs) {
    std::string status = j.done ? (j.failed ? "FAILED" : "done") : "running";
    if (j.map_only) {
      out += strf("  [w%d] %-28s map %4zu/%-4zu %s%s\n", j.wave,
                  j.name.c_str(), j.map.tasks_done, j.map.tasks_total,
                  status.c_str(),
                  j.map.stragglers > 0
                      ? strf("  (%d straggler(s))", j.map.stragglers).c_str()
                      : "");
    } else {
      out += strf("  [w%d] %-28s map %4zu/%-4zu reduce %4zu/%-4zu %s", j.wave,
                  j.name.c_str(), j.map.tasks_done, j.map.tasks_total,
                  j.reduce.tasks_done, j.reduce.tasks_total, status.c_str());
      const int stragglers = j.map.stragglers + j.reduce.stragglers;
      if (stragglers > 0) out += strf("  (%d straggler(s))", stragglers);
      out += '\n';
    }
  }
  out += strf("sim progress: %.1fs of completed tasks", sim_done_s);
  if (!active && sim_elapsed_s >= 0)
    out += strf("; modeled elapsed %.1fs", sim_elapsed_s);
  else if (eta_s >= 0)
    out += strf("; eta ~%.1fs simulated", eta_s);
  out += '\n';
  return out;
}

void ProgressTracker::set_callback(Callback cb) {
  std::lock_guard<std::mutex> lock(mu_);
  callback_ = std::move(cb);
}

void ProgressTracker::notify() {
  Callback cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!callback_) return;
    cb = callback_;
  }
  cb(snapshot());
}

void ProgressTracker::begin_query(std::string sql, std::string profile,
                                  std::size_t total_jobs) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t started = state_.queries_started + 1;
    const std::uint64_t finished = state_.queries_finished;
    state_ = ProgressSnapshot{};
    state_.queries_started = started;
    state_.queries_finished = finished;
    state_.active = true;
    state_.sql = std::move(sql);
    state_.profile = std::move(profile);
    state_.total_jobs = total_jobs;
  }
  notify();
}

void ProgressTracker::begin_wave(int wave, std::size_t /*jobs_in_wave*/) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_.current_wave = wave;
  }
  notify();
}

void ProgressTracker::begin_job(std::string name, bool map_only,
                                std::size_t map_tasks,
                                std::size_t reduce_partitions) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    JobProgress j;
    j.name = std::move(name);
    j.wave = state_.current_wave;
    j.map_only = map_only;
    j.map.tasks_total = map_tasks;
    j.reduce.tasks_total = map_only ? 0 : reduce_partitions;
    state_.jobs.push_back(std::move(j));
  }
  notify();
}

void ProgressTracker::task_done(bool reduce_phase, double sim_seconds) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_.jobs.empty()) return;
    PhaseProgress& p = reduce_phase ? state_.jobs.back().reduce
                                    : state_.jobs.back().map;
    ++p.tasks_done;
    p.sim_done_s += sim_seconds;
    state_.sim_done_s += sim_seconds;
  }
  notify();
}

void ProgressTracker::phase_done(bool reduce_phase, int stragglers) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_.jobs.empty()) return;
    PhaseProgress& p = reduce_phase ? state_.jobs.back().reduce
                                    : state_.jobs.back().map;
    p.stragglers = stragglers;
  }
  notify();
}

void ProgressTracker::job_done(bool failed, double sim_total_s) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_.jobs.empty()) return;
    JobProgress& j = state_.jobs.back();
    j.done = true;
    j.failed = failed;
    j.sim_total_s = sim_total_s;
    ++state_.jobs_done;
    if (state_.current_wave >= state_.waves_done)
      state_.waves_done = state_.current_wave + 1;
  }
  notify();
}

void ProgressTracker::end_query(bool failed, double sim_elapsed_s) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A query that threw mid-job ends that job too: failed, not running.
    for (auto& j : state_.jobs)
      if (!j.done) {
        j.done = j.failed = true;
        ++state_.jobs_done;
      }
    state_.active = false;
    state_.failed = failed;
    state_.sim_elapsed_s = sim_elapsed_s;
    state_.current_wave = -1;
    ++state_.queries_finished;
  }
  notify();
}

ProgressSnapshot ProgressTracker::snapshot() const {
  ProgressSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap = state_;
  }
  // Estimate remaining simulated seconds from completed work.
  if (!snap.active) {
    snap.eta_s = 0;
    return snap;
  }
  std::size_t done_tasks = 0;
  double done_task_s = 0;
  std::size_t done_jobs = 0;
  double done_job_s = 0;
  for (const auto& j : snap.jobs) {
    done_tasks += j.map.tasks_done + j.reduce.tasks_done;
    done_task_s += j.map.sim_done_s + j.reduce.sim_done_s;
    if (j.done) {
      ++done_jobs;
      done_job_s += j.sim_total_s;
    }
  }
  if (done_tasks == 0) return snap;  // nothing completed: eta unknown (-1)
  const double mean_task_s = done_task_s / static_cast<double>(done_tasks);
  double eta = 0;
  // Remaining tasks of jobs already started.
  for (const auto& j : snap.jobs) {
    if (j.done) continue;
    const std::size_t remaining =
        (j.map.tasks_total - j.map.tasks_done) +
        (j.reduce.tasks_total - j.reduce.tasks_done);
    eta += mean_task_s * static_cast<double>(remaining);
  }
  // Jobs not yet started, estimated from completed jobs (or, before any
  // job finished, from the mean task time of the first one).
  const std::size_t not_started =
      snap.total_jobs > snap.jobs.size() ? snap.total_jobs - snap.jobs.size()
                                         : 0;
  if (not_started > 0) {
    const double mean_job_s =
        done_jobs > 0 ? done_job_s / static_cast<double>(done_jobs)
                      : done_task_s;
    eta += mean_job_s * static_cast<double>(not_started);
  }
  // Defensive: a non-finite estimate (poisoned sim_seconds input) renders
  // as "nan"/"inf" in \top; keep eta at -1 ("unknown") instead.
  if (std::isfinite(eta)) snap.eta_s = eta;
  return snap;
}

void ProgressTracker::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = ProgressSnapshot{};
}

}  // namespace ysmart::obs
