#include "mr/shuffle.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace ysmart {

namespace {

/// The first 8 bytes of `key`, big-endian, zero-padded: comparing two
/// prefixes as integers agrees with comparing the keys bytewise whenever
/// the prefixes differ (a shorter key's padding is 0, the lowest byte).
std::uint64_t key_prefix(std::string_view key) {
  std::uint64_t p = 0;
  const std::size_t n = std::min<std::size_t>(key.size(), 8);
  for (std::size_t i = 0; i < n; ++i)
    p |= std::uint64_t{static_cast<unsigned char>(key[i])} << (56 - 8 * i);
  return p;
}

void decode_cells(const std::string& arena, std::size_t pos, std::size_t len,
                  Row& out) {
  out.clear();
  const std::size_t end = pos + len;
  while (pos < end) out.push_back(Value::decode(arena, pos));
}

std::uint32_t narrow(std::size_t n) {
  check(n <= std::numeric_limits<std::uint32_t>::max(),
        "map output partition exceeds 4 GiB");
  return static_cast<std::uint32_t>(n);
}

}  // namespace

void MapOutput::decode_key(const MapOutputEntry& e, Row& out) const {
  decode_cells(arena, std::size_t{e.offset} + e.key_len, e.wire_key_len, out);
}

void MapOutput::decode_value(const MapOutputEntry& e, Row& out) const {
  decode_cells(arena,
               std::size_t{e.offset} + e.key_len + e.wire_key_len,
               e.value_len, out);
}

std::size_t MapOutputBuffer::add(const KeyValue& kv) {
  prof::count(prof::kNormKeyEncodes);
  key_.clear();
  for (const Value& v : kv.key) append_norm_key(v, key_);
  const std::size_t p =
      static_cast<std::size_t>(norm_key_hash(key_)) % parts_.size();
  MapOutput& out = parts_[p];
  std::string& a = out.arena;
  MapOutputEntry e;
  e.prefix = key_prefix(key_);
  e.offset = narrow(a.size());
  e.key_len = narrow(key_.size());
  a.append(key_);
  const std::size_t wire_key = a.size();
  for (const Value& v : kv.key) v.encode(a);
  const std::size_t value = a.size();
  for (const Value& v : kv.value) v.encode(a);
  e.wire_key_len = narrow(value - wire_key);
  e.value_len = narrow(a.size() - value);
  e.exclude = kv.exclude;
  e.source = kv.source;
  out.index.push_back(e);
  return p;
}

std::vector<ShuffleRef> sort_partition(PartitionRuns runs) {
  check(runs.size() <= ShuffleRef::kTaskMask + 1u,
        "too many map tasks for one shuffle");
  std::size_t total = 0;
  for (const MapOutput* r : runs) total += r->index.size();
  std::vector<ShuffleRef> refs;
  refs.reserve(total);
  for (std::size_t t = 0; t < runs.size(); ++t) {
    const MapOutput& run = *runs[t];
    for (std::size_t i = 0; i < run.index.size(); ++i) {
      const MapOutputEntry& e = run.index[i];
      refs.push_back(ShuffleRef{
          e.prefix, run.arena.data() + e.offset, e.key_len,
          (std::uint32_t{e.source} << 24) | static_cast<std::uint32_t>(t),
          static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const ShuffleRef& a, const ShuffleRef& b) {
    prof::count(prof::kRawKeyCompares);
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    const int c = norm_key_compare(a.norm_key(), b.norm_key());
    if (c != 0) return c < 0;
    if (a.source_task != b.source_task) return a.source_task < b.source_task;
    return a.pos < b.pos;
  });
  return refs;
}

}  // namespace ysmart
