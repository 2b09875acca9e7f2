// MRJobSpec: a runnable MapReduce job in the simulated runtime.
//
// Mirrors the Hadoop job model of the paper: one or more DFS input files
// (each labeled with an input tag so one mapper class can serve several
// tables, as YSmart's common mapper requires), user Mapper/Reducer
// classes, and one or more DFS output files (ordinary jobs have one; a
// CMF common job that merges several independent jobs writes each merged
// job's result to its own file, distinguished by an output tag).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/schema.h"
#include "exec/batch.h"
#include "mr/keyvalue.h"

namespace ysmart {

struct JobInput {
  std::string path;
  int input_tag = 0;
};

struct JobOutput {
  std::string path;
  Schema schema;
};

/// Sink the map function emits key/value pairs into.
class MapEmitter {
 public:
  virtual ~MapEmitter() = default;
  virtual void emit(KeyValue kv) = 0;

  void emit(Row key, Row value, std::uint8_t source = 0,
            std::uint32_t exclude = 0) {
    KeyValue kv;
    kv.key = std::move(key);
    kv.value = std::move(value);
    kv.source = source;
    kv.exclude = exclude;
    emit(std::move(kv));
  }
};

/// Sink the reduce function emits output records into. `output_idx`
/// selects which JobOutput receives the row.
class ReduceEmitter {
 public:
  virtual ~ReduceEmitter() = default;
  virtual void emit_to(int output_idx, Row row) = 0;
  void emit(Row row) { emit_to(0, std::move(row)); }
};

class Mapper {
 public:
  virtual ~Mapper() = default;

  /// Called once per input record; `input_tag` is the tag of the JobInput
  /// the record came from.
  virtual void map(const Row& record, int input_tag, MapEmitter& out) = 0;

  /// Called once at the end of each map task; lets mappers that buffer
  /// state (e.g. hash-based map-side partial aggregation, Hive's
  /// optimization noted in the paper's footnote 2) flush their output.
  virtual void finish(MapEmitter& /*out*/) {}

  /// Mappers that implement map_batch() return true here. The engine
  /// reads every split as ColumnBatch views over the input table's row
  /// range; it passes them to map_batch() when this is true (and
  /// YSMART_VECTORIZED is on), and otherwise calls map() once per record
  /// on the Rows each view builds (ColumnBatch::source_row).
  virtual bool supports_batches() const { return false; }

  /// Process one batch. Must emit exactly what per-record map() calls
  /// over batch.source_row(0..rows) would emit, in the same order — the
  /// shuffle sorts by (key, source, seq), so emission order feeds the
  /// tie-break. The default unrolls to map() so overriding
  /// supports_batches() alone is safe.
  virtual void map_batch(ColumnBatch& batch, int input_tag, MapEmitter& out) {
    for (std::size_t i = 0; i < batch.rows(); ++i)
      map(batch.source_row(i), input_tag, out);
  }
};

class Reducer {
 public:
  virtual ~Reducer() = default;

  /// Called once per distinct key with all its values, ordered by
  /// (source, map task, emit order). `key` is the key of the group's
  /// first pair, as its mapper emitted it. Each value's KeyValue::key is
  /// empty: the engine decodes only `value`, `source` and `exclude`. Key
  /// and values live in scratch the engine reuses for the next group, so
  /// they are valid only during the call.
  virtual void reduce(const Row& key, std::span<const KeyValue> values,
                      ReduceEmitter& out) = 0;

  /// Called once at the end of each reduce partition, after its last
  /// reduce() call. `empty_key_partition` is true in the one partition
  /// the empty key shuffles to: a global aggregation (whose key is
  /// empty) that saw no input emits its one row there, as SQL requires
  /// of an aggregate over no rows.
  virtual void finish(bool /*empty_key_partition*/, ReduceEmitter& /*out*/) {}
};

struct MRJobSpec {
  std::string name;
  std::vector<JobInput> inputs;
  std::vector<JobOutput> outputs;  // at least one

  /// Factories so every map/reduce task gets a fresh, stateful instance.
  std::function<std::unique_ptr<Mapper>()> make_mapper;
  std::function<std::unique_ptr<Reducer>()> make_reducer;  // null => map-only

  /// Number of merged jobs a CMF common job carries (1 for plain jobs);
  /// drives the per-pair tag byte overhead.
  int num_merged_jobs = 1;
  TagEncoding tag_encoding = TagEncoding::ExcludeList;

  /// 0 = engine picks (min(total reduce slots, kMaxSimReducers)).
  int num_reduce_tasks = 0;

  /// Human-readable names of the reduce key columns (the partition key).
  /// Purely informational — used by the observability layer to render hot
  /// keys as "col=value"; empty when the producer does not fill it.
  std::vector<std::string> key_column_names;

  // Translator cost profile knobs (how we model Hive vs Pig vs hand-coded
  // per-record constant factors; see DESIGN.md substitution table).
  double map_cpu_multiplier = 1.0;
  double reduce_cpu_multiplier = 1.0;
  double intermediate_expansion = 1.0;
};

}  // namespace ysmart
