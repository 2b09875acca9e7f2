// Shuffle micro-benchmark: host wall-clock of the serialized shuffle
// (mr/shuffle.h) at three input sizes, each spread over 16 map tasks
// that feed one reduce partition.
//
// The printed table breaks the time into the three phases the engine
// runs per pair: emit (normalize the key, pick the partition, append the
// key and value bytes to the task's arena), the partition sort (one sort
// of the gathered index), and group-and-decode (find key groups, decode
// each group's key and values into reused scratch).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "mr/shuffle.h"

namespace {

using namespace ysmart;
using namespace ysmart::bench;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A shuffle-heavy pair stream modeled on a multi-column GROUP BY:
/// composite four-cell keys (two low-cardinality strings with a common
/// prefix, then two ints) with ~16 pairs per key group, so most
/// comparisons tie on the 8-byte compare prefix and read the arena.
std::vector<KeyValue> make_pairs(std::size_t n) {
  Rng rng(20110607 + static_cast<std::uint64_t>(n));
  std::vector<KeyValue> pairs;
  pairs.reserve(n);
  const std::int64_t groups = static_cast<std::int64_t>(n / 16 + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t g = rng.uniform(0, groups - 1);
    KeyValue kv;
    kv.key = {Value{"region-" + std::to_string(g % 8)},
              Value{"customer-" + std::to_string(g / 7 % 997)},
              Value{g % 64}, Value{g}};
    kv.value = {Value{static_cast<std::int64_t>(i)}};
    kv.source = static_cast<std::uint8_t>(rng.uniform(0, 1));
    pairs.push_back(std::move(kv));
  }
  return pairs;
}

struct PhaseTimes {
  double emit_ms = 0;
  double sort_ms = 0;
  double group_ms = 0;
  std::size_t groups = 0;
  double total_ms() const { return emit_ms + sort_ms + group_ms; }
};

/// Time the three shuffle phases over `pairs` dealt round-robin to
/// `num_tasks` map tasks, as blocks are.
PhaseTimes time_phases(const std::vector<KeyValue>& pairs,
                       std::size_t num_tasks) {
  std::vector<MapOutputBuffer> buffers(num_tasks, MapOutputBuffer(1));
  PhaseTimes t;
  double t0 = now_ms();
  for (std::size_t i = 0; i < pairs.size(); ++i)
    buffers[i % num_tasks].add(pairs[i]);
  std::vector<std::vector<MapOutput>> outputs;
  for (auto& b : buffers) outputs.push_back(b.take());
  t.emit_ms = now_ms() - t0;

  std::vector<const MapOutput*> runs;
  for (const auto& o : outputs) runs.push_back(&o[0]);
  t0 = now_ms();
  const std::vector<ShuffleRef> sorted = sort_partition(runs);
  t.sort_ms = now_ms() - t0;

  t0 = now_ms();
  std::size_t values = 0;
  for_each_key_group(runs, sorted,
                     [&](const Row&, std::span<const KeyValue> group) {
                       ++t.groups;
                       values += group.size();
                     });
  t.group_ms = now_ms() - t0;
  if (values != pairs.size()) std::abort();
  return t;
}

}  // namespace

int main() {
  print_header("Serialized shuffle: emit, partition sort, group and decode");

  constexpr std::size_t kSizes[] = {50'000, 200'000, 800'000};
  constexpr std::size_t kTasks = 16;  // simulated map tasks per size
  constexpr int kReps = 3;            // best-of to damp scheduler noise

  std::printf("%10s %10s %10s %10s %10s %9s\n", "pairs", "emit ms",
              "sort ms", "group ms", "total ms", "groups");
  for (const std::size_t n : kSizes) {
    const auto pairs = make_pairs(n);
    PhaseTimes best;
    for (int rep = 0; rep < kReps; ++rep) {
      const PhaseTimes cur = time_phases(pairs, kTasks);
      if (rep == 0 || cur.total_ms() < best.total_ms()) best = cur;
    }
    std::printf("%10zu %10.2f %10.2f %10.2f %10.2f %9zu\n", n, best.emit_ms,
                best.sort_ms, best.group_ms, best.total_ms(), best.groups);
  }
  return 0;
}
