// Engine: executes MRJobSpecs for real against the simulated DFS.
//
// The engine is a faithful miniature of Hadoop's job execution (Section
// II-A of the paper): one map task per input block, hash partitioning of
// map output into R reduce partitions, per-partition sort, shuffle, merge,
// grouped reduce invocation, and output materialization back to the DFS.
// Map tasks AND reduce partitions run concurrently on a shared host
// thread pool; per-partition results are merged in fixed partition order
// and every contention/failure random draw is made on the submitting
// thread before fan-out, so results and simulated seconds are bit-identical
// for any pool size. Every byte and record is counted so the CostModel can
// derive simulated phase times.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "mr/cluster.h"
#include "mr/cost_model.h"
#include "mr/job.h"
#include "mr/metrics.h"
#include "storage/dfs.h"

namespace ysmart {

namespace obs {
struct ObsContext;
}

class Engine {
 public:
  /// Cap on in-simulator reduce partitions; real clusters with thousands
  /// of reduce slots still run our scaled-down jobs in one wave, so the
  /// modeled times are unchanged while memory stays bounded.
  static constexpr int kMaxSimReducers = 32;

  /// Maximum attempts per task before the job is declared failed, like
  /// Hadoop's mapred.map.max.attempts / mapred.reduce.max.attempts
  /// (default 4). Keeps task_failure_rate >= 1.0 from retrying forever.
  static constexpr int kMaxTaskAttempts = 4;

  /// `pool` is the host thread pool used to run map tasks and reduce
  /// partitions; null selects the process-wide ThreadPool::shared().
  /// The pool only affects real wall-clock, never simulated metrics.
  Engine(Dfs& dfs, ClusterConfig cfg, ThreadPool* pool = nullptr);

  /// Run one job: execute it over real data, write its outputs to the
  /// DFS, and return measured + simulated metrics. A job that exceeds the
  /// cluster's intermediate-disk capacity, or whose tasks exhaust their
  /// retry budget, is marked failed (its outputs are still produced so
  /// standalone results remain checkable; the DAG executor is what stops
  /// consuming them, mirroring the paper's DNFs).
  JobMetrics run(const MRJobSpec& spec);

  const ClusterConfig& cluster() const { return cfg_; }
  Dfs& dfs() { return dfs_; }

  /// Attach (or detach with null) an observability context: each job's
  /// record and phase spans are projected onto it (obs/obs.h). Null (the
  /// default) skips the projection; observation never changes simulated
  /// metrics, results, or RNG consumption (tests/test_obs.cpp).
  void set_obs(obs::ObsContext* obs) { obs_ = obs; }
  obs::ObsContext* obs() const { return obs_; }

 private:
  /// Number of simulated attempts a task needs, drawn from the failure
  /// model on the submitting thread (so fan-out order cannot perturb the
  /// RNG stream). `exhausted` means the last allowed attempt failed too.
  struct AttemptPlan {
    int attempts = 1;
    bool exhausted = false;
  };
  AttemptPlan draw_attempts();

  Dfs& dfs_;
  ClusterConfig cfg_;
  CostModel cost_;
  Rng contention_rng_;
  ThreadPool* pool_;
  obs::ObsContext* obs_ = nullptr;
};

}  // namespace ysmart
