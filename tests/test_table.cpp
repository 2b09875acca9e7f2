// Tests for the columnar Table (storage/table.h) and the reads built on
// it:
//   - append -> row(i), and append -> table-view batch value_at, are
//     bit-exact for every nasty cell shape; Mixed demotion keeps cells.
//   - byte_size(), Dfs::write's block cut and StatsCatalog::estimate's
//     NDVs equal row-walk references over the same rows.
//   - A table-view batch, its selections and a std::span<const Row> batch
//     over the same rows hold equal cells, and eval_expr_batch gives
//     equal results and counters on them.
//   - Map tasks reading one table concurrently through the engine give
//     the same rows and metrics at pool sizes 1 and 4.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "common/prof_counters.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/batch.h"
#include "exec/vector_kernels.h"
#include "mr/engine.h"
#include "sql/parser.h"
#include "stats/stats.h"
#include "storage/dfs.h"
#include "storage/table.h"

namespace ysmart {
namespace {

bool bit_identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::Null:
      return true;
    case ValueType::Int:
      return a.as_int() == b.as_int();
    case ValueType::Double: {
      const double x = a.as_double(), y = b.as_double();
      return std::memcmp(&x, &y, sizeof(x)) == 0;  // NaN- and -0.0-exact
    }
    case ValueType::String:
      return a.as_string() == b.as_string();
  }
  return false;
}

bool rows_bit_identical(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bit_identical(a[i], b[i])) return false;
  return true;
}

Value dbl_bits(std::uint64_t bits) { return Value{std::bit_cast<double>(bits)}; }

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t k2p53 = std::int64_t{1} << 53;

/// i INT, d DOUBLE, s STRING, n (every cell NULL).
Schema nasty_schema() {
  Schema s;
  s.add("i", ValueType::Int);
  s.add("d", ValueType::Double);
  s.add("s", ValueType::String);
  s.add("n", ValueType::Int);
  return s;
}

/// Every nasty cell shape, NULL in each typed column included.
std::vector<Row> nasty_rows() {
  const std::int64_t ints[] = {kMin, kMax, k2p53, k2p53 - 1, k2p53 + 1, 0, -1};
  const Value dbls[] = {
      dbl_bits(0x7ff800000badf00dULL),  // NaN with a payload
      dbl_bits(0xfff8000000001234ULL),  // negative NaN with a payload
      Value{-0.0},
      Value{0.0},
      Value{std::numeric_limits<double>::infinity()},
      Value{-std::numeric_limits<double>::infinity()},
      Value{std::numeric_limits<double>::denorm_min()},
  };
  const std::string strs[] = {std::string("a\0b", 3), std::string("\xff\xfe", 2),
                              std::string(), std::string(1, '\0'), "plain",
                              std::string("\xff", 1), "x"};
  std::vector<Row> rows;
  for (std::size_t k = 0; k < 7; ++k)
    rows.push_back(Row{Value{ints[k]}, dbls[k], Value{strs[k]}, Value::null()});
  rows.push_back(Row{Value::null(), Value::null(), Value::null(), Value::null()});
  rows.push_back(Row{Value{7}, Value::null(), Value{"after"}, Value::null()});
  return rows;
}

Table table_of(const Schema& schema, const std::vector<Row>& rows) {
  Table t(schema);
  for (const Row& r : rows) t.append(r);
  return t;
}

TEST(TableRoundTrip, AppendThenRowIsBitExact) {
  const auto rows = nasty_rows();
  const Table t = table_of(nasty_schema(), rows);
  ASSERT_EQ(t.row_count(), rows.size());
  EXPECT_EQ(t.column(0).type(), ColType::Int64);
  EXPECT_EQ(t.column(1).type(), ColType::Double);
  EXPECT_EQ(t.column(2).type(), ColType::String);
  EXPECT_EQ(t.column(3).type(), ColType::Null);
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_TRUE(rows_bit_identical(t.row(i), rows[i])) << "row " << i;
  const std::vector<Row> all = t.rows();
  ASSERT_EQ(all.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_TRUE(rows_bit_identical(all[i], rows[i])) << "row " << i;
}

TEST(TableRoundTrip, TableViewBatchIsBitExactAtEveryOffset) {
  const auto rows = nasty_rows();
  const Table t = table_of(nasty_schema(), rows);
  for (std::size_t first = 0; first <= rows.size(); ++first)
    for (std::size_t count = 0; first + count <= rows.size(); ++count) {
      ColumnBatch batch(t, first, count);
      ASSERT_EQ(batch.rows(), count);
      ASSERT_TRUE(batch.regular());
      ASSERT_EQ(batch.columns(), 4u);
      for (std::size_t c = 0; c < 4; ++c) {
        const ColumnVector& col = batch.column(c);
        bool any_null = false;
        for (std::size_t i = 0; i < count; ++i) {
          const Value& want = rows[first + i][c];
          any_null |= want.is_null();
          EXPECT_TRUE(bit_identical(col.value_at(i), want))
              << "first " << first << " row " << i << " col " << c;
        }
        // The mask is there exactly when the range holds a NULL.
        EXPECT_EQ(col.has_nulls(), any_null) << first << "+" << count << " col " << c;
      }
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_TRUE(rows_bit_identical(batch.source_row(i), rows[first + i]));
        EXPECT_TRUE(rows_bit_identical(batch.copy_row(i), rows[first + i]));
        EXPECT_TRUE(rows_bit_identical(batch.materialize_row(i), rows[first + i]));
      }
    }
}

TEST(TableRoundTrip, EmptyTable) {
  const Table t(nasty_schema());
  EXPECT_EQ(t.row_count(), 0u);
  EXPECT_EQ(t.byte_size(), 0u);
  EXPECT_TRUE(t.rows().empty());
  ColumnBatch batch(t, 0, 0);
  EXPECT_EQ(batch.rows(), 0u);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_FALSE(batch.column(c).has_nulls());
  EXPECT_THROW(ColumnBatch(t, 0, 1), InternalError);
}

TEST(TableRoundTrip, ArityIsChecked) {
  Table t(nasty_schema());
  EXPECT_THROW(t.append(Row{Value{1}}), InternalError);
  EXPECT_THROW(
      t.append(Row{Value{1}, Value{2.0}, Value{"x"}, Value::null(), Value{5}}),
      InternalError);
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(TableColumn, MixedDemotionKeepsEveryCell) {
  Schema s;
  s.add("x", ValueType::Int);
  const std::vector<std::vector<Value>> cases = {
      {Value{1}, Value{2.5}, Value{3}},                         // Int then Double
      {Value{kMax}, Value{"s"}, Value::null(), Value{k2p53 + 1}},  // Int then String
      {Value::null(), Value::null(), Value{4}, Value{-0.0}},    // NULLs first
      {Value{"a"}, dbl_bits(0x7ff800000badf00dULL), Value{kMin}},
  };
  for (std::size_t k = 0; k < cases.size(); ++k) {
    Table t(s);
    for (const Value& v : cases[k]) t.append(Row{v});
    EXPECT_EQ(t.column(0).type(), ColType::Mixed) << "case " << k;
    ColumnBatch batch(t, 0, t.row_count());
    EXPECT_EQ(batch.column(0).type(), ColType::Mixed);
    for (std::size_t i = 0; i < cases[k].size(); ++i) {
      EXPECT_TRUE(bit_identical(t.row(i)[0], cases[k][i])) << k << "/" << i;
      EXPECT_TRUE(bit_identical(batch.column(0).value_at(i), cases[k][i]));
      EXPECT_TRUE(bit_identical(batch.column(0).mixed_at(i), cases[k][i]));
    }
  }
  // Leading NULLs alone do not fix a type; the first non-null cell does.
  Table t(s);
  t.append(Row{Value::null()});
  EXPECT_EQ(t.column(0).type(), ColType::Null);
  t.append(Row{Value{9}});
  EXPECT_EQ(t.column(0).type(), ColType::Int64);
  EXPECT_TRUE(t.column(0).is_null(0));
  EXPECT_EQ(t.row(1)[0].as_int(), 9);
}

/// Random rows over `nasty_schema()` plus a fifth column mixing types.
std::vector<Row> random_rows(Rng& rng, std::size_t n, bool mixed_column) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < n; ++i) {
    auto maybe = [&](Value v) { return rng.uniform(0, 5) == 0 ? Value::null() : v; };
    Row r{maybe(Value{rng.uniform(-50, 50)}), maybe(Value{rng.uniform01() * 10 - 5}),
          maybe(Value{rng.ident(static_cast<std::size_t>(rng.uniform(0, 4)))}),
          Value::null()};
    if (mixed_column) {
      const std::int64_t kind = rng.uniform(0, 3);
      r.emplace_back();
      if (kind == 0) r.back() = Value{rng.uniform(0, 9)};
      if (kind == 1) r.back() = Value{rng.uniform01()};
      if (kind == 2) r.back() = Value{rng.ident(2)};
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

Schema wide_schema() {
  Schema s = nasty_schema();
  s.add("m", ValueType::String);
  return s;
}

TEST(TableBytes, ByteSizeIsTheSumOfRowByteSizes) {
  Rng rng(11);
  for (const std::size_t n : {0, 1, 17, 300}) {
    const Table t = table_of(wide_schema(), random_rows(rng, n, true));
    std::size_t sum = 0;
    for (const Row& r : t.rows()) sum += row_byte_size(r);
    EXPECT_EQ(t.byte_size(), sum) << n;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(t.row_byte_size(i), row_byte_size(t.row(i)));
  }
}

TEST(TableAppendRows, ConcatenationEqualsRowByRowAppends) {
  Schema s;
  s.add("x", ValueType::Int);
  const std::vector<std::vector<Value>> parts = {
      {},
      {Value::null()},
      {Value{1}, Value::null()},
      {Value{2.5}},
      {Value{"s"}, Value{"t"}},
      {Value{3}, Value{4}},
      {Value{1}, Value{0.5}},  // Mixed on its own
      {Value::null(), Value::null()},
  };
  for (const auto& a : parts)
    for (const auto& b : parts)
      for (const auto& c : parts) {
        Table rowwise(s), concat(s);
        for (const auto* p : {&a, &b, &c}) {
          Table piece(s);
          for (const Value& v : *p) {
            piece.append(Row{v});
            rowwise.append(Row{v});
          }
          concat.append_rows(piece);
        }
        ASSERT_EQ(concat.row_count(), rowwise.row_count());
        EXPECT_EQ(concat.byte_size(), rowwise.byte_size());
        EXPECT_EQ(concat.column(0).type(), rowwise.column(0).type());
        EXPECT_EQ(concat.column(0).null_data() != nullptr,
                  rowwise.column(0).null_data() != nullptr);
        for (std::size_t i = 0; i < rowwise.row_count(); ++i)
          EXPECT_TRUE(rows_bit_identical(concat.row(i), rowwise.row(i)));
      }
}

/// The block cut as a walk over whole rows: a block closes at the first
/// row that brings it to `block_bytes`, or at the last row.
std::vector<DfsBlock> row_walk_blocks(const std::vector<Row>& rows,
                                      std::uint64_t block_bytes) {
  std::vector<DfsBlock> out;
  std::size_t first = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    acc += row_byte_size(rows[i]);
    if (acc >= block_bytes || i + 1 == rows.size()) {
      DfsBlock b;
      b.first_row = first;
      b.row_count = i + 1 - first;
      b.bytes = acc;
      out.push_back(b);
      first = i + 1;
      acc = 0;
    }
  }
  return out;
}

TEST(TableDfs, WriteCutsTheRowWalkBlocks) {
  Rng rng(5);
  Schema ints;
  ints.add("a", ValueType::Int);
  ints.add("b", ValueType::Double);
  std::vector<Row> fixed_rows;
  for (int i = 0; i < 1000; ++i)
    fixed_rows.push_back(Row{Value{i}, Value{i * 0.5}});
  const Table fixed = table_of(ints, fixed_rows);
  const Table varied = table_of(wide_schema(), random_rows(rng, 1000, true));
  const Table all_null = table_of(nasty_schema(), {Row(4, Value::null())});
  for (const Table* t : {&fixed, &varied, &all_null}) {
    const std::vector<Row> rows = t->rows();
    const std::uint64_t blocks[] = {1, 7, 19, 20, 21, 64, 1000, 4096, 1u << 20};
    for (const std::uint64_t block : blocks) {
      Dfs dfs(3, block, 2);
      auto shared = std::make_shared<Table>(*t);
      const DfsFile& f = dfs.write("/t", shared);
      const auto want = row_walk_blocks(rows, block);
      ASSERT_EQ(f.blocks.size(), want.size()) << "block " << block;
      std::uint64_t total = 0;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(f.blocks[k].first_row, want[k].first_row) << block << "/" << k;
        EXPECT_EQ(f.blocks[k].row_count, want[k].row_count) << block << "/" << k;
        EXPECT_EQ(f.blocks[k].bytes, want[k].bytes) << block << "/" << k;
        total += want[k].bytes;
      }
      EXPECT_EQ(f.total_bytes, total);
      EXPECT_EQ(f.total_bytes, t->byte_size());
    }
  }
}

// ------------------ batches over the same rows agree ------------------

std::uint64_t delta(const prof::ThreadCounters& a, const prof::ThreadCounters& b,
                    int c) {
  return b.dispatch[c] - a.dispatch[c];
}

struct EvalResult {
  bool ok = false;
  std::vector<Value> values;
  std::uint64_t counters[prof::kNumCounters] = {};
};

EvalResult eval_on(const BoundExpr& e, ColumnBatch& batch) {
  EvalResult r;
  const auto s0 = prof::thread_snapshot();
  BatchVector out;
  r.ok = eval_expr_batch(e, batch, out);
  if (r.ok)
    for (std::size_t i = 0; i < batch.rows(); ++i) r.values.push_back(out.value_at(i));
  const auto s1 = prof::thread_snapshot();
  for (int c = 0; c < prof::kNumCounters; ++c) r.counters[c] = delta(s0, s1, c);
  return r;
}

void expect_same_cells(ColumnBatch& a, ColumnBatch& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.columns(), b.columns()) << what;
  for (std::size_t c = 0; c < a.columns(); ++c) {
    const ColumnVector& x = a.column(c);
    const ColumnVector& y = b.column(c);
    EXPECT_EQ(x.type(), y.type()) << what << " col " << c;
    EXPECT_EQ(x.has_nulls(), y.has_nulls()) << what << " col " << c;
    for (std::size_t i = 0; i < a.rows(); ++i)
      EXPECT_TRUE(bit_identical(x.value_at(i), y.value_at(i)))
          << what << " col " << c << " row " << i;
  }
  for (std::size_t i = 0; i < a.rows(); ++i)
    EXPECT_TRUE(rows_bit_identical(a.source_row(i), b.source_row(i))) << what;
}

const char* kExprs[] = {
    "i + 1",       "i * d",          "d / i",        "-d",
    "i < d",       "s = 'ab'",       "s < 'm'",      "s <> ''",
    "i is null",   "d is not null",  "n is null",    "n + 1",
    "m = 1",       "m is null",      "i < 0 or s = ''",
    "not (d > 0) and i >= -10",
};

TEST(TableViewBatches, ViewSelectionAndSpanBatchesAgree) {
  const Schema schema = wide_schema();
  Rng rng(77);
  // `picked` rows interleaved with filler rows of the same cell types, so
  // every batch below types its columns alike.
  // `wide` starts one row into its table, so selections must add the
  // view's offset.
  const auto picked = random_rows(rng, 700, true);
  std::vector<Row> table_rows{picked.front()};
  std::vector<std::uint32_t> at;  // positions in `wide`
  for (std::size_t k = 0; k < picked.size(); ++k) {
    table_rows.push_back(picked[picked.size() - 1 - k]);
    at.push_back(static_cast<std::uint32_t>(table_rows.size() - 1));
    table_rows.push_back(picked[k]);
  }
  const Table whole = table_of(schema, table_rows);
  const Table exact = table_of(schema, picked);
  prof::acquire_enabled();
  ColumnBatch view(exact, 0, exact.row_count());
  ColumnBatch wide(whole, 1, whole.row_count() - 1);
  ColumnBatch sel = wide.select(at);
  // A selection of a selection: every row of `wide`, then the picked ones.
  std::vector<std::uint32_t> everything(wide.rows());
  for (std::uint32_t k = 0; k < everything.size(); ++k) everything[k] = k;
  ColumnBatch sel_of_sel = wide.select(everything).select(at);
  ColumnBatch span{std::span<const Row>(picked)};
  EXPECT_EQ(view.column(4).type(), ColType::Mixed);
  expect_same_cells(view, span, "view/span");
  expect_same_cells(sel, span, "select/span");
  expect_same_cells(sel_of_sel, span, "select-of-select/span");
  for (const char* text : kExprs) {
    const BoundExpr e(parse_expression(text), schema);
    const EvalResult want = eval_on(e, span);
    for (ColumnBatch* b : {&view, &sel, &sel_of_sel}) {
      const EvalResult got = eval_on(e, *b);
      EXPECT_EQ(got.ok, want.ok) << text;
      ASSERT_EQ(got.values.size(), want.values.size()) << text;
      for (std::size_t i = 0; i < want.values.size(); ++i)
        EXPECT_TRUE(bit_identical(got.values[i], want.values[i])) << text << " row " << i;
      for (int c = 0; c < prof::kNumCounters; ++c)
        EXPECT_EQ(got.counters[c], want.counters[c])
            << text << " " << prof::counter_name(c);
    }
  }
  prof::release_enabled();
}

// --------------------------- stats sampler ---------------------------

TEST(TableStats, EstimateMatchesTheRowWalk) {
  Rng rng(3);
  const Table t = table_of(wide_schema(), random_rows(rng, 2000, true));
  const std::vector<Row> rows = t.rows();
  for (const std::size_t sample : {std::size_t{0}, std::size_t{50},
                                   std::size_t{1999}, std::size_t{100000}}) {
    const TableStats got = StatsCatalog::estimate(t, sample);
    const std::size_t n = std::min(sample, rows.size());
    EXPECT_EQ(got.rows, rows.size());
    EXPECT_EQ(got.sampled, n < rows.size());
    for (std::size_t c = 0; c < t.schema().size(); ++c) {
      std::unordered_set<std::size_t> hashes;
      for (std::size_t i = 0; i < n; ++i)
        if (!rows[i][c].is_null()) hashes.insert(rows[i][c].hash());
      std::uint64_t ndv = hashes.size();
      if (n < rows.size() && n > 0) {
        const double ratio =
            static_cast<double>(hashes.size()) / static_cast<double>(n);
        if (ratio > 0.95)
          ndv = static_cast<std::uint64_t>(ratio * static_cast<double>(rows.size()));
      }
      EXPECT_EQ(got.column_ndv.at(t.schema().at(c).name), ndv)
          << "sample " << sample << " col " << c;
    }
  }
}

// ----------------- concurrent map tasks over one table -----------------

/// Keys on i mod 7, values (d, s); the batch path reads the table-view
/// columns directly.
class ModMapper final : public Mapper {
 public:
  void map(const Row& r, int, MapEmitter& out) override {
    out.emit(Row{key_of(r[0])}, Row{r[1], r[2]});
  }
  bool supports_batches() const override { return true; }
  void map_batch(ColumnBatch& b, int, MapEmitter& out) override {
    const ColumnVector& i = b.column(0);
    const ColumnVector& d = b.column(1);
    const ColumnVector& s = b.column(2);
    for (std::size_t k = 0; k < b.rows(); ++k)
      out.emit(Row{key_of(i.value_at(k))}, Row{d.value_at(k), s.value_at(k)});
  }

 private:
  static Value key_of(const Value& v) {
    return v.is_null() ? Value::null() : Value{v.as_int() % 7};
  }
};

/// Emits (key, count, concatenated strings) per group.
class ConcatReducer final : public Reducer {
 public:
  void reduce(const Row& key, std::span<const KeyValue> values,
              ReduceEmitter& out) override {
    std::string all;
    for (const auto& kv : values)
      if (!kv.value[1].is_null()) all += kv.value[1].as_string() + ",";
    out.emit(Row{key[0], Value{static_cast<std::int64_t>(values.size())},
                 Value{all}});
  }
};

struct EngineRun {
  std::vector<Row> rows;
  JobMetrics m;
};

EngineRun run_mod_job(const std::shared_ptr<const Table>& input, ThreadPool& pool,
                      bool vectorized) {
  const bool prev = vectorized_enabled();
  set_vectorized_enabled(vectorized);
  Dfs dfs(4, 512, 2);  // ~40 map tasks over the input
  dfs.write("/in", input);
  Engine engine(dfs, ClusterConfig::small_local(1.0), &pool);
  Schema out;
  out.add("k", ValueType::Int);
  out.add("n", ValueType::Int);
  out.add("all", ValueType::String);
  MRJobSpec spec;
  spec.name = "mod";
  spec.inputs = {{"/in", 0}};
  spec.outputs = {{"/out", out}};
  spec.make_mapper = [] { return std::make_unique<ModMapper>(); };
  spec.make_reducer = [] { return std::make_unique<ConcatReducer>(); };
  EngineRun r;
  r.m = engine.run(spec);
  r.rows = dfs.file("/out").table->rows();
  set_vectorized_enabled(prev);
  return r;
}

TEST(TableEngine, ConcurrentMapTasksReadOneTable) {
  Rng rng(21);
  const auto input = std::make_shared<const Table>(
      table_of(wide_schema(), random_rows(rng, 3000, true)));
  ThreadPool one(1), four(4);
  const EngineRun base = run_mod_job(input, one, true);
  ASSERT_FALSE(base.m.failed);
  EXPECT_GT(base.m.map.tasks, 8u);
  EXPECT_EQ(base.m.map.input_records, 3000u);
  for (const auto& [pool, vectorized] :
       {std::pair<ThreadPool*, bool>{&four, true}, {&one, false}, {&four, false}}) {
    const EngineRun r = run_mod_job(input, *pool, vectorized);
    ASSERT_EQ(r.rows.size(), base.rows.size());
    for (std::size_t i = 0; i < r.rows.size(); ++i)
      EXPECT_TRUE(rows_bit_identical(r.rows[i], base.rows[i])) << "row " << i;
    EXPECT_EQ(r.m.map.tasks, base.m.map.tasks);
    EXPECT_EQ(r.m.map.output_records, base.m.map.output_records);
    EXPECT_EQ(r.m.map.output_bytes, base.m.map.output_bytes);
    EXPECT_EQ(r.m.shuffle_bytes_raw, base.m.shuffle_bytes_raw);
    EXPECT_EQ(r.m.reduce.output_records, base.m.reduce.output_records);
    EXPECT_EQ(r.m.reduce.output_bytes, base.m.reduce.output_bytes);
    EXPECT_EQ(r.m.dfs_write_bytes, base.m.dfs_write_bytes);
    EXPECT_EQ(r.m.map_time_s, base.m.map_time_s);
    EXPECT_EQ(r.m.reduce_time_s, base.m.reduce_time_s);
  }
}

}  // namespace
}  // namespace ysmart
