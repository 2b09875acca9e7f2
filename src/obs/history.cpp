#include "obs/history.h"

#include "common/json.h"
#include "common/strings.h"

namespace ysmart::obs {

void QueryHistoryStore::add(QueryHistoryRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.id = next_id_++;
  if (ring_.size() == kCapacity) ring_.erase(ring_.begin());
  ring_.push_back(std::move(record));
}

std::size_t QueryHistoryStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t QueryHistoryStore::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_ - 1;
}

std::vector<QueryHistoryRecord> QueryHistoryStore::recent(std::size_t k) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryHistoryRecord> out;
  const std::size_t n = (k == 0 || k > ring_.size()) ? ring_.size() : k;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(ring_[ring_.size() - 1 - i]);
  return out;
}

bool QueryHistoryStore::at(std::size_t i, QueryHistoryRecord* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= ring_.size()) return false;
  *out = ring_[ring_.size() - 1 - i];
  return true;
}

std::string QueryHistoryStore::json() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.begin_object();
  w.kv("capacity", static_cast<std::uint64_t>(kCapacity));
  w.kv("total_recorded", next_id_ - 1);
  w.key("queries").begin_array();
  for (std::size_t i = ring_.size(); i-- > 0;) {
    const QueryHistoryRecord& r = ring_[i];
    w.begin_object();
    w.kv("id", r.id);
    w.kv("sql", std::string_view(r.sql));
    w.kv("profile", std::string_view(r.profile));
    w.kv("jobs", r.jobs);
    w.kv("waves", r.waves);
    w.kv("sim_total_s", r.sim_total_s);
    w.kv("sim_wall_s", r.sim_wall_s);
    w.kv("host_wall_ms", r.host_wall_ms);
    w.kv("failed", r.failed);
    if (r.failed) w.kv("fail_reason", std::string_view(r.fail_reason));
    w.kv("digest", std::string_view(r.digest));
    w.kv("analyzer_text", std::string_view(r.analyzer_text));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string QueryHistoryStore::table(std::size_t k) const {
  const auto rows = recent(k);
  if (rows.empty()) return "history: no completed queries recorded\n";
  std::string out = strf("history: %zu of %llu recorded (capacity %zu)\n",
                         size(), static_cast<unsigned long long>(total_recorded()),
                         kCapacity);
  out += "  id  profile   jobs waves    sim_s   status  sql\n";
  for (const auto& r : rows) {
    std::string sql = r.sql;
    for (auto& c : sql)
      if (c == '\n' || c == '\t') c = ' ';
    if (sql.size() > 48) sql = sql.substr(0, 45) + "...";
    out += strf("  %-3llu %-9s %4d %5d %8.1f  %-7s %s\n",
                static_cast<unsigned long long>(r.id), r.profile.c_str(),
                r.jobs, r.waves, r.sim_total_s, r.failed ? "DNF" : "ok",
                sql.c_str());
    if (r.failed) out += strf("      reason: %s\n", r.fail_reason.c_str());
    else if (!r.digest.empty() && r.digest != "ok")
      out += strf("      %s\n", r.digest.c_str());
  }
  return out;
}

void QueryHistoryStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_id_ = 1;
}

}  // namespace ysmart::obs
