// Unit tests for the Common MapReduce Framework against hand-built
// TranslatedJobs: tag visibility, value dispatch, post-job computations,
// multi-output behaviour, the CombineAgg fast path, and the checks that
// guard malformed job descriptions, and a bound on the allocations the
// common reducer makes per value it reduces.
#include <gtest/gtest.h>

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

TEST_F(CmfTest, CombineAggMatchesPlainAgg) {
  auto agg = plan_query("SELECT k, sum(v) AS s, count(*) AS n FROM t GROUP BY k",
                        catalog_);

  TranslatedJob combine;
  combine.name = "combine";
  combine.kind = TranslatedJob::Kind::CombineAgg;
  combine.combine_agg_node = agg.get();
  combine.input_files.push_back(InputFile{"/tables/t", Schema{}});
  Stage st;
  st.op = agg.get();
  st.inputs = {Stage::In{true, 0}};
  st.output_index = 0;
  combine.stages = {st};
  combine.outputs = {JobOutput{"/out/combined", agg->output_schema}};
  auto mc = engine_.run(build_common_job(combine, profile_, dfs_));

  TranslatedJob plain = combine;
  plain.name = "plain";
  plain.kind = TranslatedJob::Kind::MapReduce;
  Emission e;
  e.input_file = 0;
  e.source_tag = 0;
  e.key_exprs = {Expr::make_column("k")};
  e.value_exprs = {Expr::make_column("k"), Expr::make_column("v")};
  e.consumers.push_back(Emission::Consumer{0, nullptr});
  plain.emissions.push_back(e);
  plain.outputs = {JobOutput{"/out/plain", agg->output_schema}};
  auto mp = engine_.run(build_common_job(plain, profile_, dfs_));

  EXPECT_TRUE(same_rows_unordered(*dfs_.file("/out/combined").table,
                                  *dfs_.file("/out/plain").table));
  // The combiner must shrink the map output: 5 partial pairs vs 30 raws.
  EXPECT_LT(mc.map.output_records, mp.map.output_records);
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

}  // namespace
}  // namespace ysmart
