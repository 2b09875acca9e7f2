// Serialized map output: the shuffle's only data path, shared by the
// engine and bench/bench_shuffle.cpp. Like Hadoop's map output buffer it
// keeps bytes in one buffer with a fixed-width index beside it, and the
// sort reads the index, not objects.
//
//  * Map side: MapOutputBuffer::add encodes a pair's key once into its
//    normalized form (common/normkey.h), hashes those bytes to pick the
//    reduce partition, and appends the normalized key, the key's wire
//    encoding and the value's wire encoding to that partition's arena.
//    An entry's position in the index is its emit seq.
//  * Shuffle sort: sort_partition sorts a partition's pairs from every
//    map task once by (key bytes, source, map-task index, emit seq), the
//    order a map-side sort plus a k-way merge by task index gave, and
//    what stable_sort(kv_less) over the task outputs concatenated in
//    task order gives (tests/test_shuffle.cpp pins that).
//  * Reduce side: for_each_key_group decodes each key group into scratch
//    reused across groups.
//
// The key's wire encoding is kept because the normalized key loses Int
// vs Double (Int 5 and Double 5.0 encode identically), and a reducer
// gets its group's first key as emitted. The cost model never sees the
// arenas: it charges kv_byte_size per pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/normkey.h"
#include "common/prof_counters.h"
#include "mr/keyvalue.h"

namespace ysmart {

/// Where one pair's bytes sit in its arena, plus what the sort needs
/// without reading the arena.
struct MapOutputEntry {
  std::uint64_t prefix = 0;  ///< first 8 normalized-key bytes, big-endian, 0-padded
  std::uint32_t offset = 0;  ///< arena offset of the normalized key
  std::uint32_t key_len = 0;       ///< normalized key bytes at `offset`
  std::uint32_t wire_key_len = 0;  ///< key cells' wire bytes after those
  std::uint32_t value_len = 0;     ///< value cells' wire bytes after those
  std::uint32_t exclude = 0;
  std::uint8_t source = 0;
};

/// One map task's serialized output for one reduce partition: the byte
/// arena and its index in emit order.
struct MapOutput {
  std::string arena;
  std::vector<MapOutputEntry> index;

  /// Decode the pair's key (as emitted, Int vs Double kept) into `out`.
  void decode_key(const MapOutputEntry& e, Row& out) const;
  /// Decode the pair's value into `out`.
  void decode_value(const MapOutputEntry& e, Row& out) const;
};

/// The partition every pair with an empty key shuffles to.
inline std::size_t empty_key_partition(std::size_t num_partitions) {
  return static_cast<std::size_t>(norm_key_hash({})) % num_partitions;
}

/// A map task's output buffer: one MapOutput per reduce partition.
class MapOutputBuffer {
 public:
  explicit MapOutputBuffer(std::size_t num_partitions)
      : parts_(num_partitions) {}

  /// Serialize `kv` into its partition and return the partition: FNV-1a
  /// over the normalized key bytes, modulo the partition count.
  std::size_t add(const KeyValue& kv);

  std::vector<MapOutput> take() { return std::move(parts_); }

 private:
  std::vector<MapOutput> parts_;
  std::string key_;  // normalized key scratch, reused across pairs
};

/// One pair in a partition's sort: its compare prefix and normalized key
/// bytes, its source in the top 8 bits over its map-task index, and its
/// position in that task's index (the emit seq). Ordering (source, task)
/// as one integer is what the sort's tie-break needs.
struct ShuffleRef {
  std::uint64_t prefix;
  const char* key;
  std::uint32_t key_len;
  std::uint32_t source_task;
  std::uint32_t pos;

  std::string_view norm_key() const { return {key, key_len}; }
  std::uint8_t source() const { return static_cast<std::uint8_t>(source_task >> 24); }
  std::uint32_t task() const { return source_task & kTaskMask; }

  static constexpr std::uint32_t kTaskMask = (1u << 24) - 1;
};

/// One reduce partition's input: every map task's output for it, indexed
/// by map-task index.
using PartitionRuns = std::span<const MapOutput* const>;

/// Sort a partition's pairs by (key bytes, source, map-task index, emit
/// seq). Every comparison counts one raw_key_compares.
std::vector<ShuffleRef> sort_partition(PartitionRuns runs);

/// Walk `sorted` (from sort_partition) one group of equal key bytes at a
/// time: calls fn(key, values) with the key decoded from the group's
/// first pair and its values decoded in order. Both live in scratch
/// reused across groups, valid only during the call; each value's
/// KeyValue::key is left empty. Each key comparison counts one
/// raw_key_compares.
template <typename Fn>
void for_each_key_group(PartitionRuns runs, std::span<const ShuffleRef> sorted,
                        Fn&& fn) {
  Row key;
  std::vector<KeyValue> values;
  for (std::size_t i = 0, j = 0; i < sorted.size(); i = j) {
    for (j = i + 1; j < sorted.size(); ++j) {
      prof::count(prof::kRawKeyCompares);
      if (sorted[j].prefix != sorted[i].prefix ||
          sorted[j].norm_key() != sorted[i].norm_key())
        break;
    }
    const std::size_t n = j - i;
    if (values.size() < n) values.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const ShuffleRef& r = sorted[i + k];
      const MapOutput& run = *runs[r.task()];
      const MapOutputEntry& e = run.index[r.pos];
      if (k == 0) run.decode_key(e, key);
      run.decode_value(e, values[k].value);
      values[k].source = e.source;
      values[k].exclude = e.exclude;
    }
    fn(static_cast<const Row&>(key),
       std::span<const KeyValue>(values.data(), n));
  }
}

}  // namespace ysmart
