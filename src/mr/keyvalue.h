// Key/value pair model of the simulated MapReduce runtime.
//
// A map function transforms an input record into zero or more KeyValue
// pairs. Keys and values are Rows (composite, typed). Following the paper
// (Section II-B and VI-A), each pair additionally carries:
//
//  * `source` — a small tag identifying which logical input / merged-job
//    instance produced the pair (e.g. which side of a join, or which
//    instance of a self-joined table), and
//  * `exclude` — a bitmask of merged-job ids that must NOT see this pair
//    in the reduce phase. CMF stores the *exclusion* list because map
//    outputs of merged jobs are usually highly overlapped, making the
//    exclude encoding near-empty (Section VI-A).
//
// A KeyValue is what a mapper hands to MapEmitter::emit and what a
// reducer reads in Reducer::reduce. In between, the engine keeps only the
// pair's serialized form (mr/shuffle.h).
#pragma once

#include <cstdint>

#include "common/value.h"

namespace ysmart {

struct KeyValue {
  Row key;
  Row value;
  std::uint8_t source = 0;
  std::uint32_t exclude = 0;

  /// True if merged job `job_id` should process this pair.
  bool visible_to(int job_id) const {
    return (exclude & (1u << job_id)) == 0;
  }
};

/// How the per-pair tag is encoded on the wire; determines the byte
/// overhead charged by the cost model. The paper's CMF uses ExcludeList.
enum class TagEncoding { ExcludeList, IncludeList };

/// Serialized size of a pair: key + value + source byte + tag bytes.
/// `num_merged_jobs` = how many job ids the tag must be able to name
/// (0 or 1 for non-CMF jobs, where the tag costs nothing extra).
std::uint64_t kv_byte_size(const KeyValue& kv, int num_merged_jobs,
                           TagEncoding enc);

/// Reference ordering of the shuffle sort: by key, then source (so
/// reducers see a deterministic value order). The engine sorts the
/// serialized pairs by their normalized key bytes instead (mr/shuffle.h);
/// this cell-by-cell form remains the executable specification that
/// tests pin that sort against.
bool kv_less(const KeyValue& a, const KeyValue& b);

}  // namespace ysmart
