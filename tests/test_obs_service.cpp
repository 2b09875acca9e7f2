// Tests for the continuous-observability service: the structured event
// journal, the cross-query flight recorder, and the hardened
// write_text_file helper.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
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
  const std::size_t n = obs::EventLog::kCapacity + 7;
  for (std::size_t i = 0; i < n; ++i)
    log.emit(obs::EventLevel::Info, obs::EventCategory::Schedule,
             "e" + std::to_string(i), static_cast<double>(i));
  EXPECT_EQ(log.size(), obs::EventLog::kCapacity);
  EXPECT_EQ(log.total_emitted(), n);
  EXPECT_EQ(log.dropped(), 7u);
  const auto evs = log.events();
  EXPECT_EQ(evs.front().name, "e7");  // oldest retained
  EXPECT_EQ(evs.back().name, "e" + std::to_string(n - 1));
  EXPECT_EQ(evs.front().seq, 7u);  // seq survives eviction
}

TEST(EventLog, StreamingSinkWritesEveryEvent) {
  const std::string path = testing::TempDir() + "events_sink.jsonl";
  std::remove(path.c_str());
  obs::EventLog log;
  const std::size_t n = obs::EventLog::kCapacity + 3;  // past the ring
  ASSERT_TRUE(log.open_sink(path));
  for (std::size_t i = 0; i < n; ++i)
    log.emit(obs::EventLevel::Info, obs::EventCategory::Map,
             "e" + std::to_string(i), static_cast<double>(i));
  log.close_sink();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(MiniJson(line).parse()) << line;
    ++lines;
  }
  // The sink streams everything, including events the ring evicted.
  EXPECT_EQ(lines, n);
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
  const std::size_t cap = obs::QueryHistoryStore::kCapacity;
  for (std::size_t i = 1; i <= cap + 1; ++i)
    store.add(rec("q" + std::to_string(i)));
  EXPECT_EQ(store.size(), cap);
  EXPECT_EQ(store.total_recorded(), cap + 1);
  obs::QueryHistoryRecord out;
  ASSERT_TRUE(store.at(0, &out));
  EXPECT_EQ(out.sql, "q" + std::to_string(cap + 1));
  EXPECT_EQ(out.id, cap + 1);  // ids keep counting across eviction
  ASSERT_TRUE(store.at(cap - 1, &out));
  EXPECT_EQ(out.sql, "q2");  // q1 evicted
  EXPECT_FALSE(store.at(cap, &out));
  const auto recent = store.recent();
  ASSERT_EQ(recent.size(), cap);
  EXPECT_EQ(recent[0].sql, "q" + std::to_string(cap + 1));  // most recent first
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
