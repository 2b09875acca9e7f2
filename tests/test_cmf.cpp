// Unit tests for the Common MapReduce Framework against hand-built
// TranslatedJobs: tag visibility, value dispatch, post-job computations,
// multi-output behaviour, the CombineAgg fast path against plain
// MapReduce and refdb, and the checks that guard malformed job
// descriptions; plus bounds on the allocations the common reducer makes
// per value it reduces and the CombineAgg mapper per row it maps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "api/database.h"
#include "cmf/common_job.h"
#include "common/error.h"
#include "common/prof_counters.h"
#include "data/queries.h"
#include "data/tpch_gen.h"
#include "mr/engine.h"
#include "plan/builder.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace ysmart {
namespace {

Schema kv_schema() {
  Schema s;
  s.add("k", ValueType::Int);
  s.add("v", ValueType::Int);
  return s;
}

class CmfTest : public ::testing::Test {
 protected:
  CmfTest() : dfs_(2, 256, 1), engine_(dfs_, ClusterConfig::small_local(1.0)) {
    catalog_.register_table("t", kv_schema());
    auto t = std::make_shared<Table>(kv_schema());
    for (int i = 0; i < 30; ++i) t->append({Value{i % 5}, Value{i}});
    dfs_.write("/tables/t", t);
  }

  Dfs dfs_;
  Engine engine_;
  Catalog catalog_;
  TranslatorProfile profile_ = TranslatorProfile::ysmart();
};

// Two merged aggregations over the same scan with different filters: the
// exclude tags must route each record to the right consumers.
TEST_F(CmfTest, SharedEmissionWithPerConsumerFilters) {
  // AGG over v<10 and AGG over v>=20, both grouped by k, merged job.
  auto agg_lo = plan_query(
      "SELECT k, count(*) AS n FROM t WHERE v < 10 GROUP BY k", catalog_);
  auto agg_hi = plan_query(
      "SELECT k, count(*) AS n FROM t WHERE v >= 20 GROUP BY k", catalog_);

  TranslatedJob job;
  job.name = "merged";
  job.kind = TranslatedJob::Kind::MapReduce;
  job.input_files.push_back(InputFile{"/tables/t", Schema{}});
  Emission e;
  e.input_file = 0;
  e.source_tag = 0;
  e.key_exprs = {Expr::make_column("k")};
  e.value_exprs = {Expr::make_column("k"), Expr::make_column("v")};
  e.consumers.push_back(Emission::Consumer{0, parse_expression("v < 10")});
  e.consumers.push_back(Emission::Consumer{1, parse_expression("v >= 20")});
  job.emissions.push_back(e);

  Stage s0;
  s0.op = agg_lo.get();
  s0.inputs = {Stage::In{true, 0}};
  s0.output_index = 0;
  Stage s1;
  s1.op = agg_hi.get();
  s1.inputs = {Stage::In{true, 1}};
  s1.output_index = 1;
  job.stages = {s0, s1};
  job.outputs = {JobOutput{"/out/lo", agg_lo->output_schema},
                 JobOutput{"/out/hi", agg_hi->output_schema}};

  auto spec = build_common_job(job, profile_, dfs_);
  auto m = engine_.run(spec);
  ASSERT_FALSE(m.failed);

  // v in 0..29; k = v%5. v<10: 10 rows, 2 per key; v>=20: 10 rows, 2/key.
  auto lo = dfs_.file("/out/lo").table;
  auto hi = dfs_.file("/out/hi").table;
  ASSERT_EQ(lo->row_count(), 5u);
  ASSERT_EQ(hi->row_count(), 5u);
  for (const auto& r : lo->rows()) EXPECT_EQ(r[1].as_int(), 2);
  for (const auto& r : hi->rows()) EXPECT_EQ(r[1].as_int(), 2);
  // Records passing neither filter (10..19) were never emitted: each of
  // the 30 input records emits at most one pair.
  EXPECT_EQ(m.map.output_records, 20u);
}

TEST_F(CmfTest, PostJobComputationConsumesMergedResults) {
  // One aggregation stage whose output feeds an SP stage (the "post-job
  // computation") inside the same reduce invocation; only the SP result
  // is written.
  auto agg = plan_query("SELECT k, sum(v) AS s FROM t GROUP BY k", catalog_);
  PlanPtr sp = std::make_shared<PlanNode>();
  sp->kind = PlanKind::SP;
  sp->children = {agg};
  sp->filter = parse_expression("s > 80");
  sp->output_schema = agg->output_schema;

  TranslatedJob job;
  job.name = "agg+post";
  job.input_files.push_back(InputFile{"/tables/t", Schema{}});
  Emission e;
  e.input_file = 0;
  e.source_tag = 0;
  e.key_exprs = {Expr::make_column("k")};
  e.value_exprs = {Expr::make_column("k"), Expr::make_column("v")};
  e.consumers.push_back(Emission::Consumer{0, nullptr});
  job.emissions.push_back(e);
  Stage s0;
  s0.op = agg.get();
  s0.inputs = {Stage::In{true, 0}};
  Stage s1;
  s1.op = sp.get();
  s1.inputs = {Stage::In{false, 0}};
  s1.output_index = 0;
  job.stages = {s0, s1};
  job.outputs = {JobOutput{"/out/post", sp->output_schema}};

  engine_.run(build_common_job(job, profile_, dfs_));
  // sums per key: k gets v in {k, k+5, ..., k+25}: 6 values, sum = 6k+75.
  // s > 80 keeps k >= 1.
  EXPECT_EQ(dfs_.file("/out/post").table->row_count(), 4u);
}

// ---- the CombineAgg hash aggregation against plain MapReduce ----

Schema edge_schema() {
  Schema s;
  s.add("k", ValueType::Int);
  s.add("s", ValueType::String);
  s.add("x", ValueType::Int);
  s.add("y", ValueType::Double);
  s.add("f", ValueType::Int);
  return s;
}

constexpr std::size_t kEdgeRows = 8192;
constexpr std::size_t kEdgeDoubleKeysFrom = 2048;
constexpr std::size_t kEdgeMixedKeysFrom = 4096;
constexpr std::size_t kEdgeFilteredFrom = 5000;  // f = 0 up to kEdgeFilteredTo
constexpr std::size_t kEdgeFilteredTo = 7500;

/// The hash aggregation's edge cases. Key column k holds Int cells in
/// rows [0, 2048) and Double cells in [2048, 4096), so Int 5 and Double
/// 5.0 (and 2^53 as both) land in different batches, next to 2^53 + 1,
/// -0.0, +0.0 and NULL; after that Int and Double alternate row by row,
/// which the kernels leave to the per-row fallback. s holds NULLs and
/// strings with embedded NULs, x and y are Int and Double arguments with
/// NULLs, and f is 0 throughout [5000, 7500), so the scan filter f > 0
/// empties whole batches.
std::shared_ptr<Table> edge_table() {
  const std::int64_t two53 = std::int64_t{1} << 53;
  const Value int_keys[] = {Value::null(), Value{5}, Value{two53},
                            Value{two53 + 1}, Value{-7}, Value{0}};
  const Value double_keys[] = {Value::null(), Value{5.0}, Value{-0.0},
                               Value{0.0}, Value{0.5},
                               Value{static_cast<double>(two53)}};
  const Value strings[] = {Value::null(),
                           Value{std::string()},
                           Value{std::string("a")},
                           Value{std::string("a\0b", 3)},
                           Value{std::string("a\0", 2)},
                           Value{std::string("\xff")}};
  auto t = std::make_shared<Table>(edge_schema());
  for (std::size_t i = 0; i < kEdgeRows; ++i) {
    Value k;
    if (i < kEdgeDoubleKeysFrom)
      k = int_keys[i % 6];
    else if (i < kEdgeMixedKeysFrom)
      k = double_keys[i % 6];
    else if (i % 2 == 0)
      k = Value{static_cast<std::int64_t>(i % 7)};
    else
      k = Value{static_cast<double>(i % 7)};
    const auto x = static_cast<std::int64_t>((i * 7919) % 1000) - 500;
    const bool filtered =
        (i >= kEdgeFilteredFrom && i < kEdgeFilteredTo) || i % 17 == 0;
    t->append({std::move(k), strings[(i / 3) % 6],
               i % 11 == 0 ? Value::null() : Value{x},
               i % 13 == 0 ? Value::null() : Value{static_cast<double>(x) * 0.25},
               Value{std::int64_t{filtered ? 0 : 1}}});
  }
  return t;
}

TEST_F(CmfTest, CombineAggMatchesPlainAgg) {
  // Two DFS blocks, so two map tasks of several 1024-row batches each.
  auto cluster = ClusterConfig::small_local(1.0);
  const std::shared_ptr<Table> table = edge_table();
  cluster.hdfs_block_bytes = table->byte_size() / 2 + 1;
  Database db(cluster);
  db.create_table("w", table);

  // The layout the cases above rely on: batches start at each block's
  // first row, every 1024 rows.
  const auto& blocks = db.dfs().file("/tables/w").blocks;
  ASSERT_GE(blocks.size(), 2u);
  bool whole_batch_filtered = false;
  for (const auto& b : blocks)
    for (std::size_t r = b.first_row; r < b.first_row + b.row_count;
         r += ColumnBatch::kBatchRows) {
      const std::size_t end =
          std::min(r + ColumnBatch::kBatchRows, b.first_row + b.row_count);
      EXPECT_FALSE(r < kEdgeDoubleKeysFrom && end > kEdgeDoubleKeysFrom)
          << "a batch mixes the Int and Double key rows";
      whole_batch_filtered |=
          r >= kEdgeFilteredFrom && end <= kEdgeFilteredTo &&
          end - r == ColumnBatch::kBatchRows;
    }
  EXPECT_TRUE(whole_batch_filtered);

  const char* queries[] = {
      "SELECT k, count(*) AS n, count(x) AS cx, sum(x) AS sx, avg(x) AS ax, "
      "sum(y) AS sy, avg(y) AS ay, min(y) AS mn, max(x) AS mx, "
      "min(s) AS ms FROM w WHERE f > 0 GROUP BY k",
      "SELECT s, k, count(*) AS n, count(y) AS cy, min(x) AS mn, "
      "max(y) AS mx, max(s) AS ms FROM w WHERE f > 0 GROUP BY s, k",
      "SELECT count(*) AS n, sum(y) AS sy, max(k) AS mk FROM w WHERE f > 0",
  };
  for (const char* sql : queries) {
    SCOPED_TRACE(sql);
    ASSERT_EQ(db.translate_query(sql, TranslatorProfile::ysmart()).jobs.at(0).kind,
              TranslatedJob::Kind::CombineAgg);
    ASSERT_EQ(db.translate_query(sql, TranslatorProfile::pig()).jobs.at(0).kind,
              TranslatedJob::Kind::MapReduce);
    const Table expected = db.run_reference(sql);
    const auto combined = db.run(sql, TranslatorProfile::ysmart());
    const auto plain = db.run(sql, TranslatorProfile::pig());
    ASSERT_FALSE(combined.metrics.failed());
    ASSERT_FALSE(plain.metrics.failed());
    EXPECT_EQ(combined.metrics.jobs.at(0).map.tasks, blocks.size());
    EXPECT_TRUE(same_rows_unordered(expected, *combined.result))
        << "expected:\n" << expected.to_string(40) << "got:\n"
        << combined.result->to_string(40);
    EXPECT_TRUE(same_rows_unordered(*plain.result, *combined.result));
    // The combiner shrinks the map output to one pair per group and task.
    EXPECT_LT(combined.metrics.jobs.at(0).map.output_records,
              plain.metrics.jobs.at(0).map.output_records);
  }
}

TEST_F(CmfTest, MissingInputFileThrows) {
  TranslatedJob job;
  job.name = "bad";
  job.input_files.push_back(InputFile{"/tables/nope", Schema{}});
  job.outputs = {JobOutput{"/out/x", kv_schema()}};
  EXPECT_THROW(build_common_job(job, profile_, dfs_), ExecError);
}

TEST_F(CmfTest, NonDenseSourceTagsRejected) {
  auto agg = plan_query("SELECT k, count(*) AS n FROM t GROUP BY k", catalog_);
  TranslatedJob job;
  job.name = "badtags";
  job.input_files.push_back(InputFile{"/tables/t", Schema{}});
  Emission e;
  e.input_file = 0;
  e.source_tag = 3;  // must equal its position (0)
  e.key_exprs = {Expr::make_column("k")};
  e.value_exprs = {Expr::make_column("k"), Expr::make_column("v")};
  e.consumers.push_back(Emission::Consumer{0, nullptr});
  job.emissions.push_back(e);
  Stage st;
  st.op = agg.get();
  st.inputs = {Stage::In{true, 0}};
  st.output_index = 0;
  job.stages = {st};
  job.outputs = {JobOutput{"/out/x", agg->output_schema}};
  EXPECT_THROW(build_common_job(job, profile_, dfs_), InternalError);
}

TEST_F(CmfTest, StageInputsMustNameKnownConsumersAndEarlierStages) {
  auto agg = plan_query("SELECT k, sum(v) AS s FROM t GROUP BY k", catalog_);
  PlanPtr sp = std::make_shared<PlanNode>();
  sp->kind = PlanKind::SP;
  sp->children = {agg};
  sp->output_schema = agg->output_schema;
  auto job_with = [&](Stage::In agg_in, int agg_output) {
    TranslatedJob job;
    job.name = "bad-inputs";
    job.input_files.push_back(InputFile{"/tables/t", Schema{}});
    Emission e;
    e.input_file = 0;
    e.source_tag = 0;
    e.key_exprs = {Expr::make_column("k")};
    e.value_exprs = {Expr::make_column("k"), Expr::make_column("v")};
    e.consumers.push_back(Emission::Consumer{0, nullptr});
    job.emissions.push_back(e);
    Stage s0;
    s0.op = agg.get();
    s0.inputs = {agg_in};
    s0.output_index = agg_output;
    Stage s1;
    s1.op = sp.get();
    s1.inputs = {Stage::In{false, 0}};
    s1.output_index = agg_output + 1;
    job.stages = {s0, s1};
    for (int i = 0; i <= agg_output + 1; ++i)
      job.outputs.push_back(
          JobOutput{"/out/bad" + std::to_string(i), agg->output_schema});
    return job;
  };
  EXPECT_NO_THROW(build_common_job(job_with(Stage::In{true, 0}, -1), profile_, dfs_));
  // Consumer 3 is emitted by no emission.
  EXPECT_THROW(build_common_job(job_with(Stage::In{true, 3}, -1), profile_, dfs_),
               InternalError);
  // The SP stage reads stage 0, whose rows stage 0 writes to its output.
  EXPECT_THROW(build_common_job(job_with(Stage::In{true, 0}, 0), profile_, dfs_),
               InternalError);
}

// ---- allocations of the common reducer ----

/// Allocations made inside the reduce calls of every task of a job, and
/// the values those calls were given. Reduce tasks run concurrently.
struct ReduceAllocs {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> values{0};
};

/// Forwards to the wrapped reducer, counting around each reduce call with
/// thread-counter deltas, as the host-time benchmark's ledger does.
class AllocCountingReducer final : public Reducer {
 public:
  AllocCountingReducer(std::unique_ptr<Reducer> inner, ReduceAllocs& totals)
      : inner_(std::move(inner)), totals_(totals) {}

  void reduce(const Row& key, std::span<const KeyValue> values,
              ReduceEmitter& out) override {
    const std::uint64_t before = prof::thread_snapshot().allocs;
    inner_->reduce(key, values, out);
    totals_.allocs += prof::thread_snapshot().allocs - before;
    totals_.values += values.size();
  }

 private:
  std::unique_ptr<Reducer> inner_;
  ReduceAllocs& totals_;
};

// The common reducer reads each key group through row views, so its
// allocations are its output rows and a few per-group states, not copies
// of the values: fig09's Q21 sub-tree, one job with five merged stages,
// stays within 3 allocations per reduced value. A reducer that copies
// each value into per-consumer vectors and binds its stages per key group
// makes about 17.
TEST(CmfReduceAllocations, Q21SubtreeAtMostThreePerValue) {
  Database db(ClusterConfig::small_local(/*sim_scale=*/50));
  TpchConfig tc;
  tc.orders = 1200;
  tc.parts = 300;
  tc.customers = 250;
  tc.suppliers = 40;
  const TpchData tpch = generate_tpch(tc);
  db.create_table("lineitem", tpch.lineitem);
  db.create_table("orders", tpch.orders);
  db.create_table("part", tpch.part);
  db.create_table("customer", tpch.customer);
  db.create_table("supplier", tpch.supplier);
  db.create_table("nation", tpch.nation);

  const TranslatorProfile profile = TranslatorProfile::ysmart();
  const TranslatedQuery tq =
      db.translate_query(queries::q21_subtree().sql, profile);
  ASSERT_EQ(tq.jobs.size(), 1u);
  ASSERT_EQ(tq.jobs[0].stages.size(), 5u);

  MRJobSpec spec = build_common_job(tq.jobs[0], profile, db.dfs());
  ReduceAllocs totals;
  spec.make_reducer = [inner = std::move(spec.make_reducer), &totals] {
    return std::make_unique<AllocCountingReducer>(inner(), totals);
  };
  prof::acquire_enabled();
  const JobMetrics m = db.engine().run(spec);
  prof::release_enabled();
  ASSERT_FALSE(m.failed);
  ASSERT_GT(totals.values.load(), 0u);
  EXPECT_LE(totals.allocs.load(), 3 * totals.values.load())
      << totals.allocs.load() << " allocations for " << totals.values.load()
      << " values";
}

// ---- allocations of the CombineAgg mapper ----

/// Allocations made inside the map calls (map, map_batch and finish) of
/// every task of a job, and the rows those calls were given.
struct MapAllocs {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> rows{0};
};

/// Forwards to the wrapped mapper, counting around each call with
/// thread-counter deltas, as AllocCountingReducer does.
class AllocCountingMapper final : public Mapper {
 public:
  AllocCountingMapper(std::unique_ptr<Mapper> inner, MapAllocs& totals)
      : inner_(std::move(inner)), totals_(totals) {}

  void map(const Row& record, int input_tag, MapEmitter& out) override {
    counted([&] { inner_->map(record, input_tag, out); });
    totals_.rows += 1;
  }
  void map_batch(ColumnBatch& batch, int input_tag, MapEmitter& out) override {
    counted([&] { inner_->map_batch(batch, input_tag, out); });
    totals_.rows += batch.rows();
  }
  void finish(MapEmitter& out) override {
    counted([&] { inner_->finish(out); });
  }
  bool supports_batches() const override { return inner_->supports_batches(); }

 private:
  template <class Fn>
  void counted(Fn&& fn) {
    const std::uint64_t before = prof::thread_snapshot().allocs;
    fn();
    totals_.allocs += prof::thread_snapshot().allocs - before;
  }

  std::unique_ptr<Mapper> inner_;
  MapAllocs& totals_;
};

// The CombineAgg mapper resolves each batch to group ids in one flat
// table over its keys' bytes and never builds a Row per input record:
// over 64k rows in 32 groups and two map tasks it stays within one
// allocation per hundred rows. A mapper that builds a key Row and a key
// string per record makes about one per row.
TEST(CmfMapAllocations, CombineAggAtMostOnePerHundredRows) {
  constexpr int kRows = 65536;
  auto t = std::make_shared<Table>(kv_schema());
  for (int i = 0; i < kRows; ++i) t->append({Value{i % 32}, Value{i}});
  auto cluster = ClusterConfig::small_local(1.0);
  cluster.hdfs_block_bytes = t->byte_size() / 2 + 1;
  Database db(cluster);
  db.create_table("t", t);

  const TranslatorProfile profile = TranslatorProfile::ysmart();
  const TranslatedQuery tq = db.translate_query(
      "SELECT k, count(*) AS n, sum(v) AS s FROM t GROUP BY k", profile);
  ASSERT_EQ(tq.jobs.size(), 1u);
  ASSERT_EQ(tq.jobs[0].kind, TranslatedJob::Kind::CombineAgg);

  MRJobSpec spec = build_common_job(tq.jobs[0], profile, db.dfs());
  MapAllocs totals;
  spec.make_mapper = [inner = std::move(spec.make_mapper), &totals] {
    return std::make_unique<AllocCountingMapper>(inner(), totals);
  };
  prof::acquire_enabled();
  const JobMetrics m = db.engine().run(spec);
  prof::release_enabled();
  ASSERT_FALSE(m.failed);
  ASSERT_GE(m.map.tasks, 2u);
  ASSERT_EQ(totals.rows.load(), static_cast<std::uint64_t>(kRows));
  EXPECT_EQ(m.map.output_records, 32 * m.map.tasks);
  EXPECT_LE(100 * totals.allocs.load(), totals.rows.load())
      << totals.allocs.load() << " allocations for " << totals.rows.load()
      << " rows";
}

}  // namespace
}  // namespace ysmart
