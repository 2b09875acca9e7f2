// HostProfiler: host-axis hotspot accounting per engine phase.
//
// The tracer answers "how long did each phase take on the simulated
// cluster"; this answers "where did the *simulator process* spend its
// own CPU, allocations, and dispatch work". Every engine phase (map /
// shuffle-sort / reduce / post-job, plus translate) registers a
// PhaseAgg; each worker chunk that runs inside the phase wraps itself in
// a TaskClock that snapshots thread CPU time and the thread-local
// prof:: counters at entry/exit and adds the deltas to the phase's
// atomics. Aggregation is pure host-axis bookkeeping: nothing here
// touches simulated quantities, RNG draws, or result rows, so sim
// outputs stay byte-identical with profiling on or off
// (tests/test_robustness.cpp pins this at pool sizes 1 and 8).
//
// Exports:
//  * snapshot()            — per-phase records
//  * hotspots_table()      — ranked text table (\hotspots in the shell)
//  * folded_stacks(tracer) — Brendan Gregg folded-stack lines, one per
//                            profiled phase, path = the phase span's
//                            ancestry in the tracer, weight = host CPU
//                            µs; pipe through flamegraph.pl for an SVG.
//
// Reconciliation contract (tested in tests/test_profiler.cpp): per
// phase, summed worker CPU <= summed worker busy-wall (a thread cannot
// burn more CPU than wall) and summed busy-wall <= phase wall ×
// (pool size + 1), both within a documented clock-noise tolerance
// (kClockSlackNs + 25%); process_cpu_ns() gives the query-level
// top line the per-phase sums are compared against.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/prof_counters.h"

namespace ysmart::obs {

class Tracer;

/// Immutable snapshot of one profiled phase.
struct HostPhase {
  std::string job;    // job name ("translate:<profile>" for translation)
  std::string phase;  // map | shuffle-sort | reduce | post-job | translate
  int span_id = -1;   // tracer span the phase ran under (-1 = none)
  std::uint64_t chunks = 0;         // worker chunks that reported in
  std::uint64_t cpu_ns = 0;         // summed worker-thread CPU
  std::uint64_t busy_wall_ns = 0;   // summed per-chunk wall
  std::uint64_t phase_wall_ns = 0;  // orchestrator begin -> end wall
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t frees = 0;
  std::uint64_t dispatch[prof::kNumCounters] = {};
};

class HostProfiler {
 public:
  /// Live aggregation block for one phase. Workers add into the atomics
  /// concurrently; the orchestrating thread closes it via phase_end.
  struct PhaseAgg {
    std::string job;
    std::string phase;
    int span_id = -1;
    std::uint64_t start_wall_ns = 0;
    std::uint64_t phase_wall_ns = 0;  // set by phase_end
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> cpu_ns{0};
    std::atomic<std::uint64_t> busy_wall_ns{0};
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> alloc_bytes{0};
    std::atomic<std::uint64_t> frees{0};
    std::atomic<std::uint64_t> dispatch[prof::kNumCounters] = {};
  };

  ~HostProfiler();

  /// Turns host profiling on/off. Holds a reference on the process-wide
  /// prof:: counting flag while on, so several profilers (or tests) can
  /// overlap safely.
  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Open a phase aggregate (orchestrating thread). Returns nullptr when
  /// disabled — TaskClock accepts nullptr and does nothing.
  PhaseAgg* phase_begin(int span_id, std::string job, std::string phase);
  /// Close a phase opened by phase_begin (nullptr tolerated).
  void phase_end(PhaseAgg* agg);

  /// Bracket one query to accumulate whole-process CPU for coverage
  /// reporting (how much of the process's CPU the phases explain).
  void query_begin();
  void query_end();
  std::uint64_t process_cpu_ns() const;

  /// Number of closed phases so far.
  std::size_t phase_count() const;
  std::vector<HostPhase> snapshot() const;

  /// Ranked per-phase table (highest CPU first) for \hotspots.
  std::string hotspots_table() const;

  /// Folded-stack lines ("a;b;c <cpu_us>\n") weighted by host CPU.
  /// Phases whose span ancestry the tracer still holds get the full
  /// path; others fall back to "job;phase". Identical paths merge.
  std::string folded_stacks(const Tracer& tracer) const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::vector<std::unique_ptr<PhaseAgg>> phases_;
  std::size_t closed_ = 0;  // phases_[0..closed_) are closed
  std::uint64_t query_cpu_start_ns_ = 0;
  std::uint64_t process_cpu_ns_ = 0;
  int open_queries_ = 0;
};

/// RAII phase bracket for the orchestrating thread. Null-safe: with a
/// null profiler (or profiling disabled) agg() is nullptr and the whole
/// object is inert.
class PhaseClock {
 public:
  PhaseClock(HostProfiler* profiler, int span_id, std::string job,
             std::string phase)
      : profiler_(profiler) {
    if (profiler_)
      agg_ = profiler_->phase_begin(span_id, std::move(job), std::move(phase));
  }
  ~PhaseClock() {
    if (profiler_) profiler_->phase_end(agg_);
  }

  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

  HostProfiler::PhaseAgg* agg() const { return agg_; }

 private:
  HostProfiler* profiler_ = nullptr;
  HostProfiler::PhaseAgg* agg_ = nullptr;
};

/// RAII per-chunk clock for worker (and orchestrating) threads: snapshots
/// thread CPU, wall, and the thread-local prof:: counters on entry, adds
/// the deltas to the phase aggregate on exit. Construct inside the
/// parallel_for body so each chunk attributes exactly its own work.
class TaskClock {
 public:
  explicit TaskClock(HostProfiler::PhaseAgg* agg);
  ~TaskClock();

  TaskClock(const TaskClock&) = delete;
  TaskClock& operator=(const TaskClock&) = delete;

 private:
  HostProfiler::PhaseAgg* agg_ = nullptr;
  std::uint64_t cpu0_ = 0;
  std::uint64_t wall0_ = 0;
  prof::ThreadCounters base_{};
};

}  // namespace ysmart::obs
