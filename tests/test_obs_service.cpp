// Tests for the continuous-observability service: the structured event
// journal, the cross-query flight recorder, the live progress tracker,
// and the hardened write_text_file helper.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/io.h"
#include "obs/obs.h"

namespace ysmart {
namespace {

// ---- a strict mini JSON parser (same shape as tests/test_obs.cpp) ----
class MiniJson {
 public:
  explicit MiniJson(std::string_view s) : s_(s) {}
  bool parse() {
    skip_ws();
    return value() && (skip_ws(), pos_ == s_.size());
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!peek(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!peek(',')) return false;
    }
  }
  bool array() {
    ++pos_;
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!peek(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) return false;
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  std::string_view s_;
  std::size_t pos_ = 0;
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream iss(text);
  std::string line;
  while (std::getline(iss, line)) lines.push_back(line);
  return lines;
}

// ---- event log ----

TEST(EventLog, EmitAssignsMonotonicSeqAndRendersJsonl) {
  obs::EventLog log;
  log.emit(obs::EventLevel::Info, obs::EventCategory::Map, "a", 1.0,
           {{"bytes", std::uint64_t{7}}, {"label", "x"}});
  log.emit(obs::EventLevel::Warn, obs::EventCategory::Fault, "b", 2.5,
           {{"attempts", 3}});
  ASSERT_EQ(log.size(), 2u);
  const auto evs = log.events();
  EXPECT_EQ(evs[0].seq, 0u);
  EXPECT_EQ(evs[1].seq, 1u);
  const std::string jsonl = log.jsonl();
  for (const auto& line : split_lines(jsonl)) {
    EXPECT_TRUE(MiniJson(line).parse()) << line;
    EXPECT_NE(line.find("\"wall_us\""), std::string::npos);
  }
  EXPECT_NE(jsonl.find("\"category\":\"fault\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"level\":\"warn\""), std::string::npos);
}

TEST(EventLog, SimOnlyRenderingOmitsWallClock) {
  obs::EventLog log;
  log.emit(obs::EventLevel::Info, obs::EventCategory::Reduce, "r", 3.0);
  const std::string sim_only = log.jsonl(obs::EventLog::IncludeWall::No);
  EXPECT_EQ(sim_only.find("wall_us"), std::string::npos);
  EXPECT_NE(sim_only.find("\"sim_s\":3"), std::string::npos);
}

TEST(EventLog, RingRetentionDropsOldestAndCounts) {
  obs::EventLog log;
  log.set_capacity(3);
  for (int i = 0; i < 10; ++i)
    log.emit(obs::EventLevel::Info, obs::EventCategory::Schedule,
             "e" + std::to_string(i), i);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_emitted(), 10u);
  EXPECT_EQ(log.dropped(), 7u);
  const auto evs = log.events();
  EXPECT_EQ(evs.front().name, "e7");  // oldest retained
  EXPECT_EQ(evs.back().name, "e9");
  EXPECT_EQ(evs.front().seq, 7u);  // seq survives eviction
}

TEST(EventLog, StreamingSinkWritesEveryEvent) {
  const std::string path = testing::TempDir() + "events_sink.jsonl";
  std::remove(path.c_str());
  obs::EventLog log;
  log.set_capacity(2);  // smaller than the emission count
  ASSERT_TRUE(log.open_sink(path));
  for (int i = 0; i < 5; ++i)
    log.emit(obs::EventLevel::Info, obs::EventCategory::Map,
             "e" + std::to_string(i), i);
  log.close_sink();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(MiniJson(line).parse()) << line;
    ++n;
  }
  // The sink streams everything, including events the ring evicted.
  EXPECT_EQ(n, 5);
  std::remove(path.c_str());
}

TEST(EventLog, SinkOpenFailureReportsAndReturnsFalse) {
  obs::EventLog log;
  EXPECT_FALSE(log.open_sink("/definitely-missing-dir/sub/events.jsonl"));
  EXPECT_FALSE(log.sink_open());
}

// ---- flight recorder ----

obs::QueryHistoryRecord rec(const std::string& sql, bool failed = false) {
  obs::QueryHistoryRecord r;
  r.sql = sql;
  r.profile = "ysmart";
  r.jobs = 2;
  r.waves = 2;
  r.sim_total_s = 10;
  r.sim_wall_s = 8;
  r.failed = failed;
  if (failed) r.fail_reason = "disk full";
  r.digest = failed ? "DNF" : "ok";
  r.analyzer_text = "== query doctor ==\n";
  return r;
}

TEST(QueryHistory, RingRetentionAndIds) {
  obs::QueryHistoryStore store;
  store.set_capacity(2);
  store.add(rec("q1"));
  store.add(rec("q2"));
  store.add(rec("q3"));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.total_recorded(), 3u);
  obs::QueryHistoryRecord out;
  ASSERT_TRUE(store.at(0, &out));
  EXPECT_EQ(out.sql, "q3");
  EXPECT_EQ(out.id, 3u);  // ids keep counting across eviction
  ASSERT_TRUE(store.at(1, &out));
  EXPECT_EQ(out.sql, "q2");
  EXPECT_FALSE(store.at(2, &out));
  const auto recent = store.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].sql, "q3");  // most recent first
}

TEST(QueryHistory, JsonExportParsesAndTableRenders) {
  obs::QueryHistoryStore store;
  store.add(rec("SELECT 1"));
  store.add(rec("SELECT 2", /*failed=*/true));
  const std::string json = store.json();
  EXPECT_TRUE(MiniJson(json).parse()) << json;
  EXPECT_NE(json.find("\"total_recorded\":2"), std::string::npos);
  EXPECT_NE(json.find("disk full"), std::string::npos);
  const std::string table = store.table();
  EXPECT_NE(table.find("SELECT 1"), std::string::npos);
  EXPECT_NE(table.find("DNF"), std::string::npos);
}

// ---- progress tracker ----

TEST(Progress, TracksQueryLifecycleMonotonically) {
  obs::ProgressTracker tracker;
  std::vector<std::size_t> tasks_done_seen;
  tracker.set_callback([&](const obs::ProgressSnapshot& s) {
    tasks_done_seen.push_back(s.tasks_done());
  });
  tracker.begin_query("SELECT 1", "ysmart", 2);
  tracker.begin_wave(0, 1);
  tracker.begin_job("JOIN1", /*map_only=*/false, 3, 2);
  tracker.task_done(false, 1.0);
  tracker.task_done(false, 2.0);
  tracker.task_done(false, 3.0);
  tracker.phase_done(false, 1);
  tracker.task_done(true, 4.0);
  tracker.task_done(true, 4.0);
  tracker.phase_done(true, 0);
  tracker.job_done(false, 10.0);

  obs::ProgressSnapshot s = tracker.snapshot();
  EXPECT_TRUE(s.active);
  EXPECT_EQ(s.jobs_done, 1u);
  EXPECT_EQ(s.total_jobs, 2u);
  EXPECT_EQ(s.tasks_done(), 5u);
  EXPECT_EQ(s.tasks_total(), 5u);
  ASSERT_EQ(s.jobs.size(), 1u);
  EXPECT_EQ(s.jobs[0].map.stragglers, 1);
  EXPECT_DOUBLE_EQ(s.sim_done_s, 14.0);
  EXPECT_GE(s.eta_s, 0);  // one job of two left

  tracker.end_query(false, 12.0);
  s = tracker.snapshot();
  EXPECT_FALSE(s.active);
  EXPECT_EQ(s.queries_finished, 1u);
  EXPECT_DOUBLE_EQ(s.sim_elapsed_s, 12.0);
  // Callbacks observed tasks_done never decreasing within the query.
  for (std::size_t i = 1; i < tasks_done_seen.size(); ++i)
    EXPECT_GE(tasks_done_seen[i], tasks_done_seen[i - 1]);
  EXPECT_FALSE(tasks_done_seen.empty());
}

TEST(Progress, EtaStaysFiniteWithZeroCostTasksAndRendersClean) {
  // Every completed task reported 0 simulated seconds (a legal cost-model
  // outcome for empty inputs). The mean-task estimate divides by the task
  // count, not the seconds, so eta must come out 0 — never NaN/inf.
  obs::ProgressTracker tracker;
  tracker.begin_query("SELECT 1", "ysmart", 2);
  tracker.begin_wave(0, 1);
  tracker.begin_job("J1", /*map_only=*/false, 2, 1);
  tracker.task_done(false, 0.0);
  tracker.task_done(false, 0.0);
  const obs::ProgressSnapshot s = tracker.snapshot();
  ASSERT_TRUE(std::isfinite(s.eta_s)) << s.eta_s;
  EXPECT_DOUBLE_EQ(s.eta_s, 0.0);
  const std::string out = s.render();
  EXPECT_EQ(out.find("nan"), std::string::npos) << out;
  EXPECT_EQ(out.find("inf"), std::string::npos) << out;
}

TEST(Progress, EtaUnknownBeforeAnyTaskCompletes) {
  // A started job with zero completed tasks has no basis for an estimate:
  // eta stays at the "unknown" sentinel (-1) and the render shows neither
  // an eta line nor NaN garbage.
  obs::ProgressTracker tracker;
  tracker.begin_query("SELECT 1", "ysmart", 1);
  tracker.begin_wave(0, 1);
  tracker.begin_job("J1", /*map_only=*/false, 4, 2);
  const obs::ProgressSnapshot s = tracker.snapshot();
  EXPECT_DOUBLE_EQ(s.eta_s, -1.0);
  const std::string out = s.render();
  EXPECT_EQ(out.find("eta"), std::string::npos) << out;
  EXPECT_EQ(out.find("nan"), std::string::npos) << out;
}

TEST(Progress, EtaRejectsNonFiniteSimSecondsInput) {
  // Defensive path: poisoned sim_seconds (inf) must not leak into eta_s
  // or the rendered text — the snapshot keeps eta at "unknown" instead.
  obs::ProgressTracker tracker;
  tracker.begin_query("SELECT 1", "ysmart", 3);
  tracker.begin_wave(0, 1);
  tracker.begin_job("J1", /*map_only=*/false, 3, 1);
  tracker.task_done(false, std::numeric_limits<double>::infinity());
  const obs::ProgressSnapshot s = tracker.snapshot();
  EXPECT_FALSE(std::isfinite(s.eta_s) && s.eta_s >= 0)
      << "eta must not be a finite estimate built from inf input";
  EXPECT_DOUBLE_EQ(s.eta_s, -1.0);
  EXPECT_EQ(s.render().find("eta"), std::string::npos) << s.render();
}

TEST(Progress, RenderMentionsStateAndJobs) {
  obs::ProgressTracker tracker;
  EXPECT_NE(tracker.snapshot().render().find("no query"), std::string::npos);
  tracker.begin_query("SELECT x FROM t", "hive", 1);
  tracker.begin_wave(0, 1);
  tracker.begin_job("AGG1", false, 2, 1);
  tracker.task_done(false, 1.0);
  const std::string out = tracker.snapshot().render();
  EXPECT_NE(out.find("SELECT x FROM t"), std::string::npos);
  EXPECT_NE(out.find("AGG1"), std::string::npos);
  EXPECT_NE(out.find("hive"), std::string::npos);
}

// ---- write_text_file hardening ----

TEST(WriteTextFile, RoundTripsAndAppendsNewline) {
  const std::string path = testing::TempDir() + "io_roundtrip.txt";
  ASSERT_TRUE(write_text_file(path, "hello"));
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "hello\n");
  std::remove(path.c_str());
}

TEST(WriteTextFile, UnwritablePathReportsAndReturnsFalse) {
  // The parent directory does not exist, so the open fails even as root.
  testing::internal::CaptureStderr();
  EXPECT_FALSE(
      write_text_file("/definitely-missing-dir/sub/file.txt", "body"));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("/definitely-missing-dir/sub/file.txt"),
            std::string::npos)
      << "stderr must name the target path, got: " << err;
}

}  // namespace
}  // namespace ysmart
