#include "obs/profiler.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/strings.h"
#include "obs/trace.h"

namespace ysmart::obs {

HostProfiler::~HostProfiler() {
  if (enabled_.load(std::memory_order_relaxed)) prof::release_enabled();
}

void HostProfiler::set_enabled(bool on) {
  bool was = enabled_.exchange(on, std::memory_order_relaxed);
  if (on && !was) prof::acquire_enabled();
  if (!on && was) prof::release_enabled();
}

HostProfiler::PhaseAgg* HostProfiler::phase_begin(int span_id, std::string job,
                                                  std::string phase) {
  if (!enabled()) return nullptr;
  auto agg = std::make_unique<PhaseAgg>();
  agg->job = std::move(job);
  agg->phase = std::move(phase);
  agg->span_id = span_id;
  agg->start_wall_ns = prof::wall_ns();
  PhaseAgg* raw = agg.get();
  std::lock_guard<std::mutex> lk(mu_);
  phases_.push_back(std::move(agg));
  return raw;
}

void HostProfiler::phase_end(PhaseAgg* agg) {
  if (!agg) return;
  agg->phase_wall_ns = prof::wall_ns() - agg->start_wall_ns;
  std::lock_guard<std::mutex> lk(mu_);
  // Phases open/close LIFO on the orchestrating thread, so the closed
  // prefix simply grows; keep phases_ ordered by begin time and advance
  // the closed cursor past every closed block.
  while (closed_ < phases_.size() && phases_[closed_]->phase_wall_ns > 0)
    ++closed_;
}

void HostProfiler::query_begin() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (open_queries_++ == 0) query_cpu_start_ns_ = prof::process_cpu_ns();
}

void HostProfiler::query_end() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (open_queries_ > 0 && --open_queries_ == 0)
    process_cpu_ns_ += prof::process_cpu_ns() - query_cpu_start_ns_;
}

std::uint64_t HostProfiler::process_cpu_ns() const {
  std::lock_guard<std::mutex> lk(mu_);
  return process_cpu_ns_;
}

std::size_t HostProfiler::phase_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_;
}

std::vector<HostPhase> HostProfiler::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<HostPhase> out;
  for (std::size_t i = 0; i < closed_; ++i) {
    const PhaseAgg& a = *phases_[i];
    HostPhase p;
    p.job = a.job;
    p.phase = a.phase;
    p.span_id = a.span_id;
    p.chunks = a.chunks.load(std::memory_order_relaxed);
    p.cpu_ns = a.cpu_ns.load(std::memory_order_relaxed);
    p.busy_wall_ns = a.busy_wall_ns.load(std::memory_order_relaxed);
    p.phase_wall_ns = a.phase_wall_ns;
    p.allocs = a.allocs.load(std::memory_order_relaxed);
    p.alloc_bytes = a.alloc_bytes.load(std::memory_order_relaxed);
    p.frees = a.frees.load(std::memory_order_relaxed);
    for (int c = 0; c < prof::kNumCounters; ++c)
      p.dispatch[c] = a.dispatch[c].load(std::memory_order_relaxed);
    out.push_back(std::move(p));
  }
  return out;
}

namespace {
double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string human_count(std::uint64_t n) {
  if (n >= 10'000'000) return strf("%.1fM", static_cast<double>(n) / 1e6);
  if (n >= 10'000) return strf("%.1fk", static_cast<double>(n) / 1e3);
  return strf("%llu", static_cast<unsigned long long>(n));
}
}  // namespace

std::string HostProfiler::hotspots_table() const {
  std::vector<HostPhase> phases = snapshot();
  if (phases.empty())
    return "host profiler: no phases recorded (is profiling enabled and has "
           "a query run?)\n";
  std::stable_sort(phases.begin(), phases.end(),
                   [](const HostPhase& a, const HostPhase& b) {
                     return a.cpu_ns > b.cpu_ns;
                   });
  std::uint64_t total_cpu = 0;
  HostPhase totals;
  for (const HostPhase& p : phases) {
    total_cpu += p.cpu_ns;
    totals.allocs += p.allocs;
    totals.alloc_bytes += p.alloc_bytes;
    for (int c = 0; c < prof::kNumCounters; ++c)
      totals.dispatch[c] += p.dispatch[c];
  }
  std::uint64_t proc = process_cpu_ns();
  std::string out = strf(
      "host hotspots — %zu phase(s), worker CPU %.1f ms, process CPU %.1f ms "
      "(phase coverage %s)\n",
      phases.size(), ms(total_cpu), ms(proc),
      proc > 0 ? strf("%.0f%%", 100.0 * total_cpu / proc).c_str() : "n/a");
  out += strf("%5s  %-34s %9s %9s %8s %9s %9s\n", "rank", "job/phase",
              "cpu_ms", "wall_ms", "chunks", "allocs", "alloc_mb");
  int rank = 0;
  for (const HostPhase& p : phases) {
    out += strf("%5d  %-34s %9.1f %9.1f %8llu %9s %9.1f\n", ++rank,
                (p.job + "/" + p.phase).c_str(), ms(p.cpu_ns),
                ms(p.phase_wall_ns),
                static_cast<unsigned long long>(p.chunks),
                human_count(p.allocs).c_str(),
                static_cast<double>(p.alloc_bytes) / (1024.0 * 1024.0));
  }
  out += "dispatch totals:";
  for (int c = 0; c < prof::kNumCounters; ++c)
    out += strf(" %s %s", prof::counter_name(c),
                human_count(totals.dispatch[c]).c_str());
  out += "\n";
  return out;
}

std::string HostProfiler::folded_stacks(const Tracer& tracer) const {
  std::vector<HostPhase> phases = snapshot();
  std::vector<Span> spans = tracer.spans();
  std::unordered_map<int, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i)
    by_id.emplace(spans[i].id, i);

  // Merge identical paths (the same phase of the same job profiled across
  // several runs folds into one frame) with deterministic ordering.
  std::map<std::string, std::uint64_t> folded;
  for (const HostPhase& p : phases) {
    std::string path;
    auto it = by_id.find(p.span_id);
    if (it != by_id.end()) {
      // Walk the span's ancestry root -> leaf.
      std::vector<const Span*> chain;
      for (int id = p.span_id; id >= 0;) {
        auto cur = by_id.find(id);
        if (cur == by_id.end()) break;
        chain.push_back(&spans[cur->second]);
        id = spans[cur->second].parent;
      }
      for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
        if (!path.empty()) path += ';';
        path += (*rit)->name;
      }
    }
    if (path.empty()) path = p.job + ";" + p.phase;
    // flamegraph.pl drops zero-weight frames; floor at 1 µs so a phase
    // too fast for the CPU clock's resolution still appears.
    folded[path] += std::max<std::uint64_t>(p.cpu_ns / 1000, 1);
  }
  std::string out;
  for (const auto& [path, us] : folded)
    out += strf("%s %llu\n", path.c_str(),
                static_cast<unsigned long long>(us));
  return out;
}

void HostProfiler::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  phases_.clear();
  closed_ = 0;
  process_cpu_ns_ = 0;
  query_cpu_start_ns_ = 0;
  open_queries_ = 0;
}

TaskClock::TaskClock(HostProfiler::PhaseAgg* agg) : agg_(agg) {
  if (!agg_) return;
  base_ = prof::thread_snapshot();
  cpu0_ = prof::thread_cpu_ns();
  wall0_ = prof::wall_ns();
}

TaskClock::~TaskClock() {
  if (!agg_) return;
  std::uint64_t cpu1 = prof::thread_cpu_ns();
  std::uint64_t wall1 = prof::wall_ns();
  prof::ThreadCounters now = prof::thread_snapshot();
  agg_->chunks.fetch_add(1, std::memory_order_relaxed);
  if (cpu1 > cpu0_)
    agg_->cpu_ns.fetch_add(cpu1 - cpu0_, std::memory_order_relaxed);
  if (wall1 > wall0_)
    agg_->busy_wall_ns.fetch_add(wall1 - wall0_, std::memory_order_relaxed);
  agg_->allocs.fetch_add(now.allocs - base_.allocs, std::memory_order_relaxed);
  agg_->alloc_bytes.fetch_add(now.alloc_bytes - base_.alloc_bytes,
                              std::memory_order_relaxed);
  agg_->frees.fetch_add(now.frees - base_.frees, std::memory_order_relaxed);
  for (int c = 0; c < prof::kNumCounters; ++c)
    agg_->dispatch[c].fetch_add(now.dispatch[c] - base_.dispatch[c],
                                std::memory_order_relaxed);
}

}  // namespace ysmart::obs
