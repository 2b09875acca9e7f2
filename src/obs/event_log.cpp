#include "obs/event_log.h"

#include <cstdio>

#include "common/json.h"

namespace ysmart::obs {

std::string_view to_string(EventLevel level) {
  switch (level) {
    case EventLevel::Debug: return "debug";
    case EventLevel::Info: return "info";
    case EventLevel::Warn: return "warn";
    case EventLevel::Error: return "error";
  }
  return "info";
}

std::string_view to_string(EventCategory category) {
  switch (category) {
    case EventCategory::Translate: return "translate";
    case EventCategory::Schedule: return "schedule";
    case EventCategory::Map: return "map";
    case EventCategory::Shuffle: return "shuffle";
    case EventCategory::Reduce: return "reduce";
    case EventCategory::PostJob: return "post-job";
    case EventCategory::Fault: return "fault";
  }
  return "schedule";
}

namespace {

std::string number_json(double v) {
  JsonWriter w;
  w.value(v);
  return w.take();
}

}  // namespace

EventField::EventField(std::string_view k, std::uint64_t v)
    : key(k), json(std::to_string(v)) {}
EventField::EventField(std::string_view k, std::int64_t v)
    : key(k), json(std::to_string(v)) {}
EventField::EventField(std::string_view k, int v)
    : key(k), json(std::to_string(v)) {}
EventField::EventField(std::string_view k, double v)
    : key(k), json(number_json(v)) {}
EventField::EventField(std::string_view k, std::string_view v)
    : key(k), json('"' + json_escape(v) + '"') {}
EventField::EventField(std::string_view k, const char* v)
    : EventField(k, std::string_view(v)) {}

EventLog::EventLog() : epoch_(std::chrono::steady_clock::now()) {}

double EventLog::wall_now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void EventLog::emit(EventLevel level, EventCategory category,
                    std::string_view name, double sim_s,
                    std::vector<EventField> fields) {
  Event e;
  e.level = level;
  e.category = category;
  e.name = std::string(name);
  e.sim_s = sim_s;
  e.fields = std::move(fields);

  std::lock_guard<std::mutex> lock(mu_);
  e.seq = next_seq_++;
  e.wall_us = wall_now_us();
  if (sink_) {
    *sink_ << render(e, IncludeWall::Yes) << '\n';
    sink_->flush();
    if (!sink_->good()) {
      std::fprintf(stderr, "warning: event sink write failed, closing %s\n",
                   sink_path_.c_str());
      sink_.reset();
    }
  }
  if (ring_.size() == kCapacity) {
    ring_.erase(ring_.begin());
    ++dropped_;
  }
  ring_.push_back(std::move(e));
}

bool EventLog::open_sink(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto out = std::make_unique<std::ofstream>(path, std::ios::binary);
  if (!*out) {
    std::fprintf(stderr, "warning: cannot open event sink %s\n", path.c_str());
    return false;
  }
  sink_ = std::move(out);
  sink_path_ = path;
  return true;
}

void EventLog::close_sink() {
  std::lock_guard<std::mutex> lock(mu_);
  sink_.reset();
}

bool EventLog::sink_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sink_ != nullptr;
}

std::size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t EventLog::total_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<Event> EventLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_;
}

std::string EventLog::render(const Event& e, IncludeWall wall) {
  JsonWriter w;
  w.begin_object();
  w.kv("seq", e.seq);
  w.kv("level", to_string(e.level));
  w.kv("category", to_string(e.category));
  w.kv("name", std::string_view(e.name));
  w.kv("sim_s", e.sim_s);
  if (wall == IncludeWall::Yes) w.kv("wall_us", e.wall_us);
  w.key("fields").begin_object();
  for (const auto& f : e.fields) w.key(f.key).raw(f.json);
  w.end_object();
  w.end_object();
  return w.take();
}

std::string EventLog::jsonl(IncludeWall wall) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& e : ring_) {
    out += render(e, wall);
    out += '\n';
  }
  return out;
}

void EventLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_seq_ = 0;
  dropped_ = 0;
}

}  // namespace ysmart::obs
