// Self-tests of the benchmark's own measurement code (ledger.h): the
// percentile rule, the self-time arithmetic, and that the traced task
// wrappers forward supports_batches / map_batch / finish so the engine
// runs the same program with them as without. Exits non-zero on failure.
//
//   ./perfbench_selftest
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "cmf/common_job.h"
#include "common/thread_pool.h"
#include "data/clicks_gen.h"
#include "data/queries.h"
#include "ledger.h"
#include "plan/builder.h"
#include "translator/ysmart_translator.h"

namespace {

using namespace ysmart;
using namespace perfbench;

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
    }                                                                  \
  } while (0)

void test_percentile_rule() {
  EXPECT(highest_reportable_percentile(100) == 90);
  EXPECT(highest_reportable_percentile(99) == 89);
  EXPECT(highest_reportable_percentile(1000) == 99);
  EXPECT(highest_reportable_percentile(11) == 9);
  EXPECT(highest_reportable_percentile(10) == -1);
  EXPECT(highest_reportable_percentile(0) == -1);
  for (std::size_t n : {100u, 137u, 500u})
    EXPECT(samples_beyond(n, highest_reportable_percentile(n)) >= kTailSamples);

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(percentile(v, 50) == 50);
  EXPECT(percentile(v, 90) == 90);  // 91..100 lie beyond it: ten samples
  EXPECT(percentile(v, 100) == 100);
  EXPECT(percentile(v, 0) == 1);
  EXPECT(percentile({}, 50) == 0);
  EXPECT(median({3, 1, 2}) == 2);
}

void test_self_time() {
  // Children overlap each other and stick out of the parent: the union
  // inside [0, 100) is [10, 40) + [90, 100) = 40 ns.
  EXPECT(covered_ns(0, 100, {{10, 30}, {20, 40}, {90, 120}, {200, 300}}) == 40);
  EXPECT(covered_ns(0, 100, {}) == 0);
  EXPECT(covered_ns(0, 100, {{0, 100}, {10, 20}}) == 100);

  std::vector<Span> spans = {
      {0, "query", 0, 100, -1},     // 0
      {0, "plan", 0, 10, 0},        // 1
      {0, "job", 20, 90, 0},        // 2
      {0, "mr.engine", 30, 80, 2},  // 3: grandchild of the query
      {1, "query", 100, 150, -1},   // 4: another query, not a child
  };
  EXPECT(self_ns(spans, 0) == 100 - 10 - 70);
  EXPECT(self_ns(spans, 2) == 70 - 50);
  EXPECT(self_ns(spans, 3) == 50);
  EXPECT(self_ns(spans, 4) == 50);
}

// A mapper whose batch path and per-row path emit differently, so a
// wrapper that hid supports_batches() or unrolled map_batch would show.
class ProbeMapper final : public Mapper {
 public:
  void map(const Row&, int, MapEmitter& out) override {
    out.emit(Row{Value{"row"}}, Row{});
  }
  void map_batch(ColumnBatch& batch, int, MapEmitter& out) override {
    out.emit(Row{Value{"batch"}}, Row{Value{static_cast<std::int64_t>(batch.rows())}});
  }
  void finish(MapEmitter& out) override { out.emit(Row{Value{"finish"}}, Row{}); }
  bool supports_batches() const override { return true; }
};

class ProbeReducer final : public Reducer {
 public:
  void reduce(const Row& key, std::span<const KeyValue> values,
              ReduceEmitter& out) override {
    out.emit(Row{key[0], Value{static_cast<std::int64_t>(values.size())}});
  }
};

struct VectorEmitter final : MapEmitter {
  using MapEmitter::emit;
  std::vector<KeyValue> pairs;
  void emit(KeyValue kv) override { pairs.push_back(std::move(kv)); }
};

struct RowsEmitter final : ReduceEmitter {
  std::vector<Row> rows;
  void emit_to(int, Row row) override { rows.push_back(std::move(row)); }
};

void test_wrappers_forward() {
  JobLedger ledger;
  VectorEmitter out;
  {
    TracedMapper m(std::make_unique<ProbeMapper>(), ledger);
    EXPECT(m.supports_batches());
    std::vector<Row> rows(3, Row{Value{std::int64_t{1}}});
    ColumnBatch batch{std::span<const Row>(rows)};
    m.map_batch(batch, 0, out);
    m.map(rows[0], 0, out);
    m.finish(out);
  }  // the wrapper adds its totals to the ledger when destroyed
  EXPECT(out.pairs.size() == 3);
  EXPECT(out.pairs.size() == 3 && out.pairs[0].key[0] == Value{"batch"} &&
         out.pairs[0].value[0] == Value{std::int64_t{3}});
  EXPECT(out.pairs.size() == 3 && out.pairs[1].key[0] == Value{"row"});
  EXPECT(out.pairs.size() == 3 && out.pairs[2].key[0] == Value{"finish"});
  EXPECT(ledger.map.pairs == 3);

  RowsEmitter rout;
  {
    TracedReducer r(std::make_unique<ProbeReducer>(), ledger);
    r.reduce(Row{Value{"k"}}, std::span<const KeyValue>(out.pairs), rout);
    r.reduce(Row{Value{"j"}}, std::span<const KeyValue>(out.pairs.data(), 1), rout);
  }
  EXPECT(rout.rows.size() == 2 && rout.rows[0][1] == Value{std::int64_t{3}});
  EXPECT(ledger.reduce.groups == 2);
  EXPECT(ledger.reduce.values == 4);
}

// A wrapper that forgets finish(): the self-test below must notice.
class DropsFinish final : public Mapper {
 public:
  explicit DropsFinish(std::unique_ptr<Mapper> inner) : inner_(std::move(inner)) {}
  void map(const Row& r, int tag, MapEmitter& out) override { inner_->map(r, tag, out); }
  void map_batch(ColumnBatch& b, int tag, MapEmitter& out) override {
    inner_->map_batch(b, tag, out);
  }
  bool supports_batches() const override { return inner_->supports_batches(); }

 private:
  std::unique_ptr<Mapper> inner_;
};

// Q-AGG is a CombineAgg job: its mapper aggregates in map_batch and emits
// only in finish(). Wrapped, the engine must produce the same rows and
// metrics as unwrapped, and the counted pairs must be the engine's own.
void test_wrapped_combine_agg() {
  ThreadPool pool(2);
  ClicksConfig cc;
  cc.users = 300;
  Database db(ClusterConfig::small_local(1000), &pool);
  db.create_table("clicks", generate_clicks(cc));
  const auto profile = TranslatorProfile::ysmart();
  TranslatedQuery tq = translate(plan_query(queries::qagg().sql, db.catalog()),
                                 profile, "/selftest", &db.stats());
  EXPECT(tq.jobs.size() == 1);
  if (tq.jobs.size() != 1) return;
  EXPECT(tq.jobs[0].kind == TranslatedJob::Kind::CombineAgg);
  const std::string out_path = tq.result_path();

  auto run = [&](MRJobSpec spec) {
    JobMetrics m = db.engine().run(spec);
    auto table = db.dfs().file(out_path).table;
    db.dfs().remove(out_path);
    return std::make_pair(m, table);
  };
  const auto [plain_m, plain_t] = run(build_common_job(tq.jobs[0], profile, db.dfs()));

  JobLedger ledger;
  MRJobSpec spec = build_common_job(tq.jobs[0], profile, db.dfs());
  EXPECT(spec.make_mapper()->supports_batches());
  wrap_tasks(spec, ledger);
  EXPECT(spec.make_mapper()->supports_batches());
  const auto [traced_m, traced_t] = run(spec);

  EXPECT(plain_t->row_count() > 0);
  EXPECT(same_rows_unordered(*plain_t, *traced_t));
  EXPECT(plain_m.map.output_records == traced_m.map.output_records);
  EXPECT(plain_m.shuffle_bytes_raw == traced_m.shuffle_bytes_raw);
  EXPECT(plain_m.map_time_s == traced_m.map_time_s);
  EXPECT(plain_m.reduce_time_s == traced_m.reduce_time_s);
  EXPECT(ledger.map.pairs == traced_m.map.output_records);
  EXPECT(ledger.reduce.values == traced_m.reduce.input_records);
  EXPECT(ledger.reduce.groups == plain_t->row_count());

  // The check above is sensitive: dropping finish() loses every pair.
  MRJobSpec broken = build_common_job(tq.jobs[0], profile, db.dfs());
  broken.make_mapper = [inner = broken.make_mapper] {
    return std::make_unique<DropsFinish>(inner());
  };
  const auto [broken_m, broken_t] = run(broken);
  EXPECT(broken_m.map.output_records == 0);
  EXPECT(broken_t->row_count() == 0);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  test_wrappers_forward();
  test_wrapped_combine_agg();
  if (g_failures) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: ok\n");
  return 0;
}
