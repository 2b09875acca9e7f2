// Live progress reporting for an in-flight query DAG.
//
// obs::observe() updates per-wave/per-job task-completion counters here
// from the engine's job record and the executor's wave record — always
// on the orchestrating thread, at the points where the corresponding
// values have already been computed for JobMetrics (job start, phase
// ends, wave starts) — so an attached tracker observes execution without
// perturbing it, and its contents are deterministic for a fixed seed at
// any pool size (only *when* updates become visible depends on the host).
//
// Consumers take an immutable ProgressSnapshot: the shell renders the
// latest one as \top, and bench binaries install an on-update callback
// (--progress) to print task-completion lines while a DAG runs. The
// callback is invoked from the orchestrating thread after the tracker's
// lock is released; callbacks must not re-enter the tracker's mutators.
//
// ETA: the modeled remaining time is estimated from completed-task
// simulated seconds — mean completed task time times the known remaining
// tasks of the current job, plus mean completed-job time times the jobs
// not yet started. It is an estimate on the *simulated* axis (how much
// modeled time is left, the quantity the paper's figures compare), not a
// host wall-clock forecast.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace ysmart::obs {

struct PhaseProgress {
  std::size_t tasks_total = 0;
  std::size_t tasks_done = 0;
  double sim_done_s = 0;  // summed sim seconds of completed tasks
  int stragglers = 0;     // tasks > 2x phase median, known at phase end
};

struct JobProgress {
  std::string name;
  int wave = -1;
  bool map_only = false;
  bool done = false;
  bool failed = false;
  PhaseProgress map;
  PhaseProgress reduce;  // simulated partitions (what actually executes)
  double sim_total_s = 0;  // filled when the job finishes
};

struct ProgressSnapshot {
  bool active = false;  // a query is currently executing
  std::uint64_t queries_started = 0;
  std::uint64_t queries_finished = 0;
  std::string sql;
  std::string profile;
  std::size_t total_jobs = 0;  // known up front from the translated DAG
  std::size_t jobs_done = 0;
  int current_wave = -1;
  int waves_done = 0;
  bool failed = false;
  std::vector<JobProgress> jobs;  // jobs started so far, in start order
  double sim_done_s = 0;  // completed-task sim seconds across the query
  double sim_elapsed_s = 0;  // final modeled elapsed; set at end_query
  double eta_s = -1;  // estimated remaining simulated seconds; <0 unknown

  std::size_t tasks_done() const;
  std::size_t tasks_total() const;  // of jobs started so far

  /// Multi-line rendering for the shell's \top.
  std::string render() const;
};

class ProgressTracker {
 public:
  using Callback = std::function<void(const ProgressSnapshot&)>;

  /// Install a callback invoked (from the orchestrating thread, outside
  /// the tracker's lock) after every update. Null disables.
  void set_callback(Callback cb);

  void begin_query(std::string sql, std::string profile,
                   std::size_t total_jobs);
  void begin_wave(int wave, std::size_t jobs_in_wave);
  void begin_job(std::string name, bool map_only, std::size_t map_tasks,
                 std::size_t reduce_partitions);
  /// One task of the current job finished costing. `reduce_phase` selects
  /// the phase; `sim_seconds` is the task's charged simulated time.
  void task_done(bool reduce_phase, double sim_seconds);
  /// The current job's phase completed; `stragglers` is the count of
  /// tasks above twice the phase median (the analyzer's rule).
  void phase_done(bool reduce_phase, int stragglers);
  void job_done(bool failed, double sim_total_s);
  /// The query finished; a job still running (the query threw) is marked
  /// done and failed.
  void end_query(bool failed, double sim_elapsed_s);

  ProgressSnapshot snapshot() const;

  void clear();

 private:
  void notify();  // invoke the callback with a fresh snapshot, unlocked

  mutable std::mutex mu_;
  ProgressSnapshot state_;
  Callback callback_;
};

}  // namespace ysmart::obs
