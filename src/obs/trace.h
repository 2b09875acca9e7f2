// Span-based query-lifecycle tracer.
//
// A Span is one timed region of the query lifecycle. Spans nest
// strictly (begin/end are LIFO on the orchestrating thread), forming the
// hierarchy the paper's argument is about:
//
//   query
//   └─ translate
//      ├─ parse+plan
//      ├─ correlation-detect
//      ├─ merge
//      └─ lower
//   └─ wave 0
//      └─ job:<name>
//         ├─ sched          (simulated only: submission delay)
//         ├─ map
//         ├─ shuffle-sort   (reduce-side merge of sorted map buckets)
//         ├─ reduce
//         └─ post-job       (output materialization to the DFS)
//
// Every span carries TWO time axes that must never mix (DESIGN.md,
// "Execution concurrency vs. simulated time"):
//
//  * wall  — measured host microseconds (steady clock). How long the
//    simulator itself took. Nondeterministic.
//  * sim   — simulated seconds from the CostModel, placed on a per-query
//    simulated timeline via the tracer's sim cursor. Deterministic: two
//    runs with the same seed produce byte-identical sim-axis exports.
//
// Exports: Chrome trace_event JSON (load in chrome://tracing or Perfetto;
// the two axes appear as two processes) and an EXPLAIN ANALYZE-style
// indented text tree. Args attached to spans must be deterministic values
// (bytes, records, simulated seconds) — never wall-clock — so the
// Simulated export stays diffable.
//
// Thread safety: all public methods lock; begin/end are expected from the
// single orchestrating thread (the engine draws RNG and creates spans
// before fanning work out to the pool), but stray calls from workers are
// safe. A null ObsContext disables everything: instrumentation sites are
// pointer checks that cost nothing when observability is off.
#pragma once

#include <cstdint>
#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ysmart::obs {

enum class TimeAxis { Simulated, Wall, Both };

struct Span {
  int id = -1;
  int parent = -1;  // -1 = root
  std::string name;
  std::string category;  // query | translate | wave | job | phase
  double wall_start_us = 0;
  double wall_dur_us = -1;  // -1 while open
  double sim_start_s = -1;  // -1 = no simulated interval
  double sim_dur_s = -1;
  /// Deterministic key/value annotations; value is pre-encoded JSON.
  std::vector<std::pair<std::string, std::string>> args;

  bool open() const { return wall_dur_us < 0; }
  bool has_sim() const { return sim_start_s >= 0; }
};

class Tracer {
 public:
  Tracer();

  /// Open a span as a child of the innermost open span. Returns its id.
  int begin(std::string name, std::string category);
  /// Close span `id`. Out-of-order closes mark the trace malformed (the
  /// span is still closed so exports stay loadable).
  void end(int id);

  /// Place span `id` on the simulated timeline (may be called after end).
  void set_sim(int id, double start_s, double dur_s);

  void arg(int id, std::string key, std::uint64_t value);
  void arg(int id, std::string key, double value);
  void arg(int id, std::string key, std::string_view value);

  /// Simulated-timeline cursor: where the next job's sim interval starts.
  /// obs::observe() advances it past each standalone job, and past each
  /// dependency wave as a whole, so concurrently-submitted jobs overlap.
  double sim_now() const;
  void set_sim_now(double seconds);

  /// True when every begin had a LIFO-matching end and all spans are
  /// closed — the invariant the trace tests pin down.
  bool well_formed() const;

  std::vector<Span> spans() const;  // snapshot
  std::size_t span_count() const;

  /// Chrome trace_event JSON (JSON-object form with "traceEvents", as
  /// chrome://tracing and Perfetto load). Simulated and wall axes export
  /// as pid 1 ("simulated cluster") and pid 2 ("host wall-clock").
  /// TimeAxis::Simulated output is deterministic for a fixed seed.
  /// `extra_events` appends pre-encoded trace_event objects (one per
  /// string) after the span events — the cluster view's per-node tracks
  /// (pid 3, ClusterReport::chrome_events) ride along this way.
  std::string chrome_json(TimeAxis axis = TimeAxis::Both) const;
  std::string chrome_json(TimeAxis axis,
                          const std::vector<std::string>& extra_events) const;

  /// EXPLAIN ANALYZE-style indented tree with both clocks per span.
  std::string analyze_tree() const;

  void clear();

 private:
  double wall_now_us() const;

  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids
  double sim_now_s_ = 0;
  bool malformed_ = false;
};

}  // namespace ysmart::obs
