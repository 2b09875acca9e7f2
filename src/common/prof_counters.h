// Low-level host-profiling primitives: a process-wide enable flag,
// thread-local dispatch/allocation counters, and CPU-clock helpers.
//
// This lives in common/ (not obs/) because the hot loops that count into
// it — Value::compare, the shuffle comparators, expression evaluation —
// sit below the observability layer and must not depend on it. The
// aggregation/export side (HostProfiler) is in src/obs/profiler.h and
// reads these counters via snapshot deltas.
//
// Design constraints, in order:
//   1. Zero perturbation of *simulated* results: nothing here ever feeds
//      back into sim quantities; counting is host-axis bookkeeping only.
//   2. Near-zero cost when profiling is off: every count() is one relaxed
//      atomic load and a predictable branch.
//   3. Thread-sanitizer friendly: the thread-local state is a trivially
//      constructible/destructible POD, the flag is a constinit atomic
//      (no static-initialization-order hazards, safe from any thread,
//      safe during process teardown when late frees still run).
#pragma once

#include <atomic>
#include <cstdint>

namespace ysmart::prof {

/// Dispatch-counter slots. The names mirror the ROADMAP's vectorization
/// questions: how often do we pay a std::variant visit vs a raw memcmp,
/// how many rows flow through scalar eval, how many cells cross the
/// map/reduce wire codec.
enum Counter : int {
  kCellCompares = 0,  ///< Value::compare calls (variant dispatch)
  kRawKeyCompares,    ///< normalized-key comparisons (shuffle sort, grouping)
  kRowsEvaluated,     ///< BoundExpr::eval invocations
  kAggUpdates,        ///< aggregate-state add/merge updates
  kOperatorRows,      ///< rows consumed by relational operator loops
  kCellsEncoded,      ///< cells appended to a normalized/wire encoding
  kCellsDecoded,      ///< cells decoded back from an encoding
  kNormKeyEncodes,    ///< whole shuffle keys normalized (map emit path)
  kNumCounters
};

/// Stable snake_case name for counter slot `i` (JSON keys, tables).
const char* counter_name(int i);

/// Per-thread counter block. POD on purpose: thread_local init must be
/// trivial so the first count on a brand-new pool thread (or inside
/// operator new during static init) cannot recurse or allocate.
struct ThreadCounters {
  std::uint64_t dispatch[kNumCounters];
  std::uint64_t allocs;
  std::uint64_t alloc_bytes;
  std::uint64_t frees;
};

namespace detail {
extern constinit std::atomic<bool> g_enabled;
extern thread_local ThreadCounters t_counters;
}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Reference-counted enable: profiling is on while at least one holder
/// (HostProfiler, a test) has it on. Never called from hot paths.
void acquire_enabled();
void release_enabled();

inline void count(Counter c) {
  if (enabled()) ++detail::t_counters.dispatch[c];
}

inline void count(Counter c, std::uint64_t n) {
  if (enabled()) detail::t_counters.dispatch[c] += n;
}

/// Copy of the calling thread's counters; diff two snapshots to
/// attribute work done between them to a profiled scope.
ThreadCounters thread_snapshot();

/// this-thread CPU time (CLOCK_THREAD_CPUTIME_ID) in ns; 0 if the clock
/// is unavailable.
std::uint64_t thread_cpu_ns();

/// Whole-process CPU time in ns; 0 if unavailable.
std::uint64_t process_cpu_ns();

/// Monotonic host wall clock in ns (steady_clock).
std::uint64_t wall_ns();

}  // namespace ysmart::prof
