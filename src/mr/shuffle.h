// The shuffle's sort/merge/group primitives, shared by the engine and
// bench/bench_shuffle.cpp.
//
// Every hot key comparison on this path runs over the normalized key
// cached in KeyValue::norm_key (common/normkey.h): one memcmp instead of
// a cell-by-cell walk through std::variant dispatch — Hadoop's
// RawComparator optimization. The YSMART_RAW_COMPARATOR=off escape
// hatch falls back to compare_rows-based comparators; because the
// encoding is order-preserving, both modes produce bit-identical
// orderings, partitions, results and simulated metrics (pinned by
// tests/test_robustness.cpp), so the knob only changes host wall-clock.
//
// Partitioning always hashes the normalized key bytes (one hash over
// the cached encoding, computed once per pair) in BOTH modes: the
// partition function decides which reduce partition sees which key, so
// it must not change with the comparator knob.
#pragma once

#include <cstddef>
#include <vector>

#include "common/normkey.h"
#include "common/prof_counters.h"
#include "mr/keyvalue.h"

namespace ysmart {

/// Whether the raw (memcmp) comparator drives the shuffle path.
/// Initialized once from YSMART_RAW_COMPARATOR (default on); tests may
/// override at runtime with set_raw_comparator_enabled.
bool raw_comparator_enabled();
void set_raw_comparator_enabled(bool on);

/// Reduce partition for a pair: FNV-1a over the cached normalized key,
/// identical in both comparator modes.
inline std::size_t shuffle_partition(const KeyValue& kv,
                                     std::size_t num_partitions) {
  return static_cast<std::size_t>(norm_key_hash(kv.norm_key)) % num_partitions;
}

/// The partition every pair with an empty key shuffles to.
inline std::size_t empty_key_partition(std::size_t num_partitions) {
  return static_cast<std::size_t>(norm_key_hash({})) % num_partitions;
}

/// Map-side sort of one partition bucket: plain std::sort over the
/// explicit (key, source, seq) tuple. seq is the bucket-local emit
/// index, so the result is exactly what the historical
/// stable_sort(kv_less) produced — deterministically, without
/// stable_sort's allocation.
void sort_map_bucket(std::vector<KeyValue>& bucket);

/// K-way merge of already-sorted runs (one per map task, in map-task
/// order; null/empty runs allowed). Ties on (key, source) break by run
/// index, then by the runs' internal seq order — exactly the order of
/// concatenating in task order and stable-sorting. Consumes the runs
/// (moved-from, then cleared).
std::vector<KeyValue> merge_sorted_runs(
    const std::vector<std::vector<KeyValue>*>& runs);

/// Key equality for reduce-group detection: byte equality of the cached
/// normalized keys (raw mode) or compare_rows (fallback). Equal keys
/// encode identically, so the two agree.
inline bool same_shuffle_key(const KeyValue& a, const KeyValue& b) {
  if (raw_comparator_enabled()) {
    prof::count(prof::kRawKeyCompares);
    return a.norm_key == b.norm_key;
  }
  return compare_rows(a.key, b.key) == 0;
}

}  // namespace ysmart
