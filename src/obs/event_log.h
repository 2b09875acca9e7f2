// Structured event journal: leveled, categorized JSONL events that
// obs::observe() derives from the query, wave and job records.
//
// Where the tracer answers "how long did each region take" and
// QueryMetrics "how much work was done", the event journal answers
// "what happened, in order": query started, wave scheduled, map
// phase finished, task retried, job failed. Each event carries
//
//  * a monotonic sequence number (per log, never reused),
//  * both clocks — the simulated timestamp the emitter places it at and
//    host wall microseconds since the log's epoch,
//  * a level (debug/info/warn/error) and a category
//    (translate/schedule/map/shuffle/reduce/post-job/fault),
//  * deterministic key/value fields (bytes, records, simulated seconds —
//    never wall-clock values, so the sim-axis export stays diffable).
//
// Retention is a bounded in-memory ring (kCapacity events; the oldest
// are dropped and counted, never silently). An optional streaming sink
// appends each event to a file as one JSON line the moment it is emitted
// (YSMART_EVENTS=<path> in the shell); sink I/O failures are reported on
// stderr with the target path and disable the sink, they never throw
// into the engine.
//
// Non-perturbation: the log is only ever written through an attached
// ObsContext, every emission reads values already computed for
// JobMetrics/QueryMetrics, and all emissions happen on the orchestrating
// thread — so simulated metrics are bit-identical with the journal on or
// off, and jsonl(IncludeWall::No) is byte-identical across thread-pool
// sizes (pinned in tests/test_robustness.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ysmart::obs {

enum class EventLevel { Debug, Info, Warn, Error };
enum class EventCategory {
  Translate,
  Schedule,
  Map,
  Shuffle,
  Reduce,
  PostJob,
  Fault,
};

std::string_view to_string(EventLevel level);
std::string_view to_string(EventCategory category);

/// One key/value field of an event. The value is stored pre-encoded as
/// JSON so rendering is a plain join; only deterministic quantities may
/// be passed (the wall clock lives in the event envelope, not in fields).
struct EventField {
  std::string key;
  std::string json;  // valid JSON value

  EventField(std::string_view k, std::uint64_t v);
  EventField(std::string_view k, std::int64_t v);
  EventField(std::string_view k, int v);
  EventField(std::string_view k, double v);
  EventField(std::string_view k, std::string_view v);
  EventField(std::string_view k, const char* v);
};

struct Event {
  std::uint64_t seq = 0;
  EventLevel level = EventLevel::Info;
  EventCategory category = EventCategory::Schedule;
  std::string name;
  double sim_s = 0;    // simulated timestamp (seconds on the query timeline)
  double wall_us = 0;  // host microseconds since the log's epoch
  std::vector<EventField> fields;
};

class EventLog {
 public:
  static constexpr std::size_t kCapacity = 4096;

  enum class IncludeWall { Yes, No };

  EventLog();

  /// Append one event. Assigns the sequence number and wall timestamp;
  /// `sim_s` is the simulated timestamp the emitter places the event at.
  void emit(EventLevel level, EventCategory category, std::string_view name,
            double sim_s, std::vector<EventField> fields = {});

  /// Stream every subsequent event to `path` as JSONL (appending to the
  /// ring as well). Returns false — after a stderr warning naming the
  /// path — when the file cannot be opened.
  bool open_sink(const std::string& path);
  void close_sink();
  bool sink_open() const;

  std::size_t size() const;            // events currently in the ring
  std::uint64_t total_emitted() const; // lifetime emissions
  std::uint64_t dropped() const;       // overwritten by ring retention

  std::vector<Event> events() const;  // snapshot, oldest first

  /// The ring as JSON lines, oldest first, one event per line. With
  /// IncludeWall::No the nondeterministic wall timestamp is omitted and
  /// the output is byte-identical for a fixed seed at any pool size.
  std::string jsonl(IncludeWall wall = IncludeWall::Yes) const;

  void clear();

 private:
  static std::string render(const Event& e, IncludeWall wall);
  double wall_now_us() const;

  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Event> ring_;  // kept in order, oldest first
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::unique_ptr<std::ofstream> sink_;
  std::string sink_path_;
};

}  // namespace ysmart::obs
