// Measurement helpers of the host-time benchmark, kept free of workload
// logic so the self-tests (selftest.cpp) can pin them down:
//
//  * the percentile rule: a timing is reported at the median and at the
//    highest percentile that still has at least ten samples beyond it;
//  * spans and the self-time arithmetic (a span's duration minus the part
//    of it its children cover);
//  * Mapper / Reducer / MapEmitter wrappers that measure thread CPU,
//    allocations and dispatch counters around each call into the wrapped
//    instance, forwarding every virtual (supports_batches, map_batch and
//    finish included) so the engine runs exactly the program it would run
//    without them.
//
// Everything here observes the library from outside, through its public
// headers; nothing inside src/ is changed or hooked.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/prof_counters.h"
#include "mr/job.h"

namespace perfbench {

// ---------------------------------------------------------------- samples

/// Samples a percentile must leave beyond it to be reported.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least p% of the samples at or below it. 0 for no samples.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, int p) {
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n))));
  return n - std::min(rank, n);
}

/// The highest whole percentile of n samples that still has at least
/// kTailSamples samples beyond it; -1 when even the minimum has fewer.
inline int highest_reportable_percentile(std::size_t n) {
  for (int p = 99; p >= 0; --p)
    if (samples_beyond(n, p) >= kTailSamples) return p;
  return -1;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 50);
}

// ------------------------------------------------------------------ spans

/// One traced interval. Spans of one query share `query`; `parent` is the
/// index of the enclosing span in the same vector, -1 for a root.
struct Span {
  int query = 0;
  std::string layer;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Nanoseconds of [start, end) covered by the union of `children`,
/// each clipped to the interval first (children may overlap each other).
inline std::uint64_t covered_ns(std::uint64_t start, std::uint64_t end,
                                std::vector<std::pair<std::uint64_t, std::uint64_t>> children) {
  std::sort(children.begin(), children.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = start;
  for (auto [b, e] : children) {
    b = std::max(b, cursor);
    e = std::min(e, end);
    if (b >= e) continue;
    covered += e - b;
    cursor = e;
  }
  return covered;
}

/// Self time of spans[i]: its duration minus what its direct children
/// cover.
inline std::uint64_t self_ns(const std::vector<Span>& spans, std::size_t i) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
  for (const auto& s : spans)
    if (s.parent == static_cast<int>(i)) kids.emplace_back(s.start_ns, s.end_ns);
  return spans[i].duration_ns() -
         covered_ns(spans[i].start_ns, spans[i].end_ns, std::move(kids));
}

// ----------------------------------------------------- per-call counters

/// Work attributed to one layer: thread CPU, allocations and the library's
/// dispatch counters (which count only while prof::acquire_enabled() is
/// held).
struct CallTotals {
  std::uint64_t cpu_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t rows_evaluated = 0;
  std::uint64_t cell_compares = 0;
  std::uint64_t agg_updates = 0;

  CallTotals& operator+=(const CallTotals& o) {
    cpu_ns += o.cpu_ns;
    allocs += o.allocs;
    rows_evaluated += o.rows_evaluated;
    cell_compares += o.cell_compares;
    agg_updates += o.agg_updates;
    return *this;
  }
};

/// Adds the calling thread's CPU and counter deltas over its lifetime to
/// `into`. Must begin and end on one thread.
class CallScope {
 public:
  explicit CallScope(CallTotals& into)
      : into_(into),
        cpu0_(ysmart::prof::thread_cpu_ns()),
        c0_(ysmart::prof::thread_snapshot()) {}
  ~CallScope() {
    const ysmart::prof::ThreadCounters c1 = ysmart::prof::thread_snapshot();
    into_.cpu_ns += ysmart::prof::thread_cpu_ns() - cpu0_;
    into_.allocs += c1.allocs - c0_.allocs;
    into_.rows_evaluated += delta(c1, ysmart::prof::kRowsEvaluated);
    into_.cell_compares += delta(c1, ysmart::prof::kCellCompares);
    into_.agg_updates += delta(c1, ysmart::prof::kAggUpdates);
  }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  std::uint64_t delta(const ysmart::prof::ThreadCounters& c1, int slot) const {
    return c1.dispatch[slot] - c0_.dispatch[slot];
  }
  CallTotals& into_;
  std::uint64_t cpu0_;
  ysmart::prof::ThreadCounters c0_;
};

struct MapTotals {
  CallTotals calls;
  std::uint64_t pairs = 0;

  MapTotals& operator+=(const MapTotals& o) {
    calls += o.calls;
    pairs += o.pairs;
    return *this;
  }
};

struct ReduceTotals {
  CallTotals calls;
  std::uint64_t groups = 0;
  std::uint64_t values = 0;

  ReduceTotals& operator+=(const ReduceTotals& o) {
    calls += o.calls;
    groups += o.groups;
    values += o.values;
    return *this;
  }
};

/// Totals of one job, filled concurrently by the map and reduce tasks the
/// engine runs on its pool; each task instance adds its own totals once,
/// when the engine destroys it.
struct JobLedger {
  std::mutex mu;
  MapTotals map;        // guarded by mu
  ReduceTotals reduce;  // guarded by mu
};

// --------------------------------------------------------------- wrappers

/// Counts pairs on their way into the engine's emitter.
class CountingEmitter final : public ysmart::MapEmitter {
 public:
  CountingEmitter(ysmart::MapEmitter& inner, std::uint64_t& pairs)
      : inner_(inner), pairs_(pairs) {}
  using ysmart::MapEmitter::emit;
  void emit(ysmart::KeyValue kv) override {
    ++pairs_;
    inner_.emit(std::move(kv));
  }

 private:
  ysmart::MapEmitter& inner_;
  std::uint64_t& pairs_;
};

class TracedMapper final : public ysmart::Mapper {
 public:
  TracedMapper(std::unique_ptr<ysmart::Mapper> inner, JobLedger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}
  ~TracedMapper() override {
    std::lock_guard<std::mutex> lk(ledger_.mu);
    ledger_.map += totals_;
  }
  TracedMapper(const TracedMapper&) = delete;
  TracedMapper& operator=(const TracedMapper&) = delete;

  void map(const ysmart::Row& record, int input_tag,
           ysmart::MapEmitter& out) override {
    CountingEmitter counted(out, totals_.pairs);
    CallScope scope(totals_.calls);
    inner_->map(record, input_tag, counted);
  }
  void map_batch(ysmart::ColumnBatch& batch, int input_tag,
                 ysmart::MapEmitter& out) override {
    CountingEmitter counted(out, totals_.pairs);
    CallScope scope(totals_.calls);
    inner_->map_batch(batch, input_tag, counted);
  }
  void finish(ysmart::MapEmitter& out) override {
    CountingEmitter counted(out, totals_.pairs);
    CallScope scope(totals_.calls);
    inner_->finish(counted);
  }
  bool supports_batches() const override { return inner_->supports_batches(); }

 private:
  std::unique_ptr<ysmart::Mapper> inner_;
  JobLedger& ledger_;
  MapTotals totals_;
};

class TracedReducer final : public ysmart::Reducer {
 public:
  TracedReducer(std::unique_ptr<ysmart::Reducer> inner, JobLedger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}
  ~TracedReducer() override {
    std::lock_guard<std::mutex> lk(ledger_.mu);
    ledger_.reduce += totals_;
  }
  TracedReducer(const TracedReducer&) = delete;
  TracedReducer& operator=(const TracedReducer&) = delete;

  void reduce(const ysmart::Row& key, std::span<const ysmart::KeyValue> values,
              ysmart::ReduceEmitter& out) override {
    ++totals_.groups;
    totals_.values += values.size();
    CallScope scope(totals_.calls);
    inner_->reduce(key, values, out);
  }

 private:
  std::unique_ptr<ysmart::Reducer> inner_;
  JobLedger& ledger_;
  ReduceTotals totals_;
};

/// Route the spec's task factories through the wrappers above. `ledger`
/// must outlive every run of `spec`.
inline void wrap_tasks(ysmart::MRJobSpec& spec, JobLedger& ledger) {
  spec.make_mapper = [inner = std::move(spec.make_mapper), &ledger] {
    return std::make_unique<TracedMapper>(inner(), ledger);
  };
  if (spec.make_reducer)
    spec.make_reducer = [inner = std::move(spec.make_reducer), &ledger] {
      return std::make_unique<TracedReducer>(inner(), ledger);
    };
}

}  // namespace perfbench
