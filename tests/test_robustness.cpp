// Robustness properties: the parser never crashes on malformed input,
// Value ordering is a valid total order, makespan is monotone, the
// engine's reduce-task accounting scales to large clusters, job failures
// abort the DAG instead of feeding downstream jobs, total task failure
// terminates, engine results are pool-size invariant, and explain output
// is stable.
#include <gtest/gtest.h>

#include "api/database.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/clicks_gen.h"
#include "data/queries.h"
#include "data/tpch_gen.h"
#include "exec/batch.h"
#include "mr/engine.h"
#include "obs/analyzer.h"
#include "obs/cluster_view.h"
#include "obs/obs.h"
#include "sql/parser.h"

namespace ysmart {
namespace {

// ---- parser fuzz-lite: garbage must throw ParseError, never crash ----

class ParserFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzzTest, MalformedInputThrowsCleanly) {
  Rng rng(GetParam());
  static const char* fragments[] = {
      "select", "from",  "where", "group",  "by",    "order", "join", "on",
      "(",      ")",     ",",     "*",      "=",     "<",     ">=",   "and",
      "or",     "not",   "null",  "is",     "count", "sum",   "t",    "a.b",
      "'str'",  "1.5",   "42",    "as",     "x",     "limit", "<>",   "-",
      "+",      "/",     "having", "distinct"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string sql;
    const int n = static_cast<int>(rng.uniform(1, 18));
    for (int i = 0; i < n; ++i) {
      sql += fragments[rng.uniform(0, std::int64_t(std::size(fragments)) - 1)];
      sql += " ";
    }
    try {
      parse_select(sql);  // parsing may legitimately succeed
    } catch (const ParseError&) {
      // expected for most random strings
    } catch (const std::exception& e) {
      FAIL() << "non-ParseError exception for: " << sql << " -> " << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---- Value::compare is a total order ----

TEST(ValueOrdering, TransitiveAntisymmetricOverRandomValues) {
  Rng rng(5);
  std::vector<Value> vals;
  for (int i = 0; i < 60; ++i) {
    switch (rng.uniform(0, 3)) {
      case 0: vals.push_back(Value::null()); break;
      case 1: vals.push_back(Value{rng.uniform(-5, 5)}); break;
      case 2: vals.push_back(Value{rng.uniform(-5, 5) / 2.0}); break;
      default: vals.push_back(Value{rng.ident(2)}); break;
    }
  }
  for (const auto& a : vals) {
    EXPECT_EQ(a.compare(a), std::strong_ordering::equal);
    for (const auto& b : vals) {
      const auto ab = a.compare(b);
      const auto ba = b.compare(a);
      EXPECT_TRUE((ab < 0 && ba > 0) || (ab > 0 && ba < 0) ||
                  (ab == 0 && ba == 0));
      if (ab == 0) {
        EXPECT_EQ(a.hash(), b.hash());
      }
      for (const auto& c : vals) {
        if (ab <= 0 && b.compare(c) <= 0) {
          EXPECT_TRUE(a.compare(c) <= 0);
        }
      }
    }
  }
}

// ---- makespan properties over random task sets ----

class MakespanPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MakespanPropertyTest, BoundsAndMonotonicity) {
  Rng rng(GetParam());
  std::vector<double> tasks;
  double total = 0, longest = 0;
  const int n = static_cast<int>(rng.uniform(1, 40));
  for (int i = 0; i < n; ++i) {
    const double t = rng.uniform01() * 10 + 0.01;
    tasks.push_back(t);
    total += t;
    longest = std::max(longest, t);
  }
  double prev = 1e300;
  for (int slots : {1, 2, 3, 5, 8, 100}) {
    const double m = CostModel::makespan(tasks, slots);
    EXPECT_GE(m + 1e-9, longest);            // never beats the longest task
    EXPECT_GE(m + 1e-9, total / slots);      // never beats perfect balance
    EXPECT_LE(m, total + 1e-9);              // never worse than serial
    EXPECT_LE(m, prev + 1e-9);               // more slots never hurts
    prev = m;
  }
  EXPECT_DOUBLE_EQ(CostModel::makespan(tasks, 1), total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MakespanPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ---- reduce accounting on clusters larger than the simulation cap ----

TEST(ReduceScaling, TargetTasksReportedAndTimeScales) {
  Schema s;
  s.add("k", ValueType::Int);
  auto t = std::make_shared<Table>(s);
  for (int i = 0; i < 2000; ++i) t->append({Value{i}});

  auto run_on = [&](int nodes) {
    auto cfg = ClusterConfig::ec2(nodes, 1.0);
    Dfs dfs(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication);
    dfs.write("/in", t);
    Engine engine(dfs, cfg);
    MRJobSpec spec;
    spec.name = "ident";
    spec.inputs = {{"/in", 0}};
    Schema out;
    out.add("k", ValueType::Int);
    out.add("n", ValueType::Int);
    spec.outputs = {{"/out", out}};
    struct M final : Mapper {
      void map(const Row& r, int, MapEmitter& e) override {
        e.emit(Row{r[0]}, Row{Value{1}});
      }
    };
    struct R final : Reducer {
      void reduce(const Row& k, std::span<const KeyValue> v,
                  ReduceEmitter& e) override {
        e.emit(Row{k[0], Value{static_cast<std::int64_t>(v.size())}});
      }
    };
    spec.make_mapper = [] { return std::make_unique<M>(); };
    spec.make_reducer = [] { return std::make_unique<R>(); };
    return engine.run(spec);
  };

  auto small = run_on(8);
  auto big = run_on(200);
  // The reported reduce task count is the cluster's real count, not the
  // simulator's internal cap.
  EXPECT_EQ(small.reduce.tasks, 8u);
  EXPECT_EQ(big.reduce.tasks, 200u);
  EXPECT_GT(big.reduce.tasks, Engine::kMaxSimReducers);
  // Identical data, wildly different cluster: identical results.
  EXPECT_EQ(small.reduce.output_records, big.reduce.output_records);
}

// ---- failure propagation, retry caps, pool-size invariance ----

// Shared word-count-style fixture bits for engine-level tests.
Schema key_schema() {
  Schema s;
  s.add("k", ValueType::Int);
  return s;
}

MRJobSpec counting_spec() {
  MRJobSpec spec;
  spec.name = "count";
  spec.inputs = {{"/in", 0}};
  Schema out;
  out.add("k", ValueType::Int);
  out.add("n", ValueType::Int);
  spec.outputs = {{"/out", out}};
  struct M final : Mapper {
    void map(const Row& r, int, MapEmitter& e) override {
      e.emit(Row{r[0]}, Row{Value{1}});
    }
  };
  struct R final : Reducer {
    void reduce(const Row& k, std::span<const KeyValue> v,
                ReduceEmitter& e) override {
      e.emit(Row{k[0], Value{static_cast<std::int64_t>(v.size())}});
    }
  };
  spec.make_mapper = [] { return std::make_unique<M>(); };
  spec.make_reducer = [] { return std::make_unique<R>(); };
  return spec;
}

std::shared_ptr<Table> key_rows(int n, int distinct) {
  auto t = std::make_shared<Table>(key_schema());
  for (int i = 0; i < n; ++i) t->append({Value{i % distinct}});
  return t;
}

TEST(FailurePropagation, DownstreamJobsDoNotRunAfterCapacityFailure) {
  ClicksConfig c;
  c.users = 100;
  c.mean_clicks_per_user = 10;
  auto clicks = generate_clicks(c);

  Database healthy(ClusterConfig::small_local(50));
  healthy.create_table("clicks", clicks);
  const auto ok = healthy.run(queries::qcsa().sql, TranslatorProfile::hive());
  ASSERT_FALSE(ok.metrics.failed());
  ASSERT_GT(ok.metrics.job_count(), 1);

  auto cfg = ClusterConfig::small_local(50);
  cfg.local_disk_capacity_bytes = 1 << 20;  // 1 MB: the first job overflows
  Database db(cfg);
  db.create_table("clicks", clicks);
  const auto dnf = db.run(queries::qcsa().sql, TranslatorProfile::hive());
  EXPECT_TRUE(dnf.metrics.failed());
  // No downstream job ran after the failure, and no result is handed out.
  EXPECT_LT(dnf.metrics.job_count(), ok.metrics.job_count());
  EXPECT_TRUE(dnf.metrics.jobs.back().failed);
  EXPECT_EQ(dnf.result, nullptr);
}

TEST(FailureInjection, TotalFailureRateTerminatesWithFailedJob) {
  Dfs dfs(2, 64, 1);
  dfs.write("/in", key_rows(50, 7));
  auto cfg = ClusterConfig::small_local(1.0);
  cfg.task_failure_rate = 1.0;  // every attempt fails; must not hang
  Engine engine(dfs, cfg);
  const auto m = engine.run(counting_spec());
  EXPECT_TRUE(m.failed);
  EXPECT_NE(m.fail_reason.find("attempts"), std::string::npos);
  // The schedule charges exactly the retry cap per task, no more.
  EXPECT_GT(m.map_time_s, 0);
}

TEST(PoolInvariance, ResultsAndSimulatedSecondsIdenticalAcrossPoolSizes) {
  auto data = key_rows(3000, 97);
  auto cfg = ClusterConfig::ec2(8, 1.0);
  cfg.task_failure_rate = 0.2;  // exercise the retry RNG stream too
  cfg.contention.enabled = true;

  JobMetrics m1, mn, m1o, mno, m1p, mnp;
  std::shared_ptr<const Table> t1, tn, t1o, tno, t1p, tnp;
  auto run_with = [&](ThreadPool& pool, JobMetrics& m,
                      std::shared_ptr<const Table>& t,
                      obs::ObsContext* obs = nullptr) {
    Dfs dfs(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication);
    dfs.write("/in", data);
    Engine engine(dfs, cfg, &pool);
    engine.set_obs(obs);
    m = engine.run(counting_spec());
    t = dfs.file("/out").table;
  };

  ThreadPool serial(1), wide(8);
  obs::ObsContext o1, on, op1, opn;
  // Two more contexts with the host profiler on: host-axis accounting
  // (CPU clocks, allocation counters, dispatch counters) must be just as
  // non-perturbing as tracing.
  op1.profiler.set_enabled(true);
  opn.profiler.set_enabled(true);
  run_with(serial, m1, t1);
  run_with(wide, mn, tn);
  run_with(serial, m1o, t1o, &o1);
  run_with(wide, mno, tno, &on);
  run_with(serial, m1p, t1p, &op1);
  run_with(wide, mnp, tnp, &opn);

  // Bit-identical simulated times and measured quantities — across pool
  // sizes, with tracing enabled vs disabled, and with the host profiler
  // enabled on top.
  for (const JobMetrics* other : {&mn, &m1o, &mno, &m1p, &mnp}) {
    EXPECT_DOUBLE_EQ(m1.map_time_s, other->map_time_s);
    EXPECT_DOUBLE_EQ(m1.reduce_time_s, other->reduce_time_s);
    EXPECT_DOUBLE_EQ(m1.sched_delay_s, other->sched_delay_s);
    EXPECT_EQ(m1.shuffle_bytes_raw, other->shuffle_bytes_raw);
    EXPECT_EQ(m1.shuffle_bytes_wire, other->shuffle_bytes_wire);
    EXPECT_EQ(m1.dfs_write_bytes, other->dfs_write_bytes);
    EXPECT_EQ(m1.reduce.output_records, other->reduce.output_records);
  }
  // Identical rows in identical order (not just as a multiset).
  const std::vector<Row> rows1 = t1->rows();
  for (const auto* t : {&tn, &t1o, &tno, &t1p, &tnp}) {
    ASSERT_EQ(t1->row_count(), (*t)->row_count());
    const std::vector<Row> rows = (*t)->rows();
    for (std::size_t i = 0; i < rows1.size(); ++i)
      EXPECT_EQ(compare_rows(rows1[i], rows[i]), std::strong_ordering::equal);
  }
  // The simulated-axis trace is itself pool-size invariant, byte for
  // byte; only the wall axis may differ.
  EXPECT_TRUE(o1.tracer.well_formed());
  EXPECT_TRUE(on.tracer.well_formed());
  EXPECT_EQ(o1.tracer.chrome_json(obs::TimeAxis::Simulated),
            on.tracer.chrome_json(obs::TimeAxis::Simulated));
  // Profiler-on runs produce the same sim-axis trace as profiler-off
  // runs, at both pool sizes — the profiler only ever touches the host
  // axis.
  EXPECT_EQ(o1.tracer.chrome_json(obs::TimeAxis::Simulated),
            op1.tracer.chrome_json(obs::TimeAxis::Simulated));
  EXPECT_EQ(o1.tracer.chrome_json(obs::TimeAxis::Simulated),
            opn.tracer.chrome_json(obs::TimeAxis::Simulated));
  // And it did actually record host phases while staying non-perturbing.
  EXPECT_GT(op1.profiler.phase_count(), 0u);
  EXPECT_GT(opn.profiler.phase_count(), 0u);

  // Task samples — recorded on the orchestrating thread in fixed task/
  // partition order — are pool-size invariant too: every per-task
  // measurement matches, and the analyzer (which consumes only samples)
  // emits byte-identical JSON at pool size 1 and 8. Together with the
  // metrics loop above this proves sampling is non-perturbing: the same
  // simulated seconds with observation off (m1, mn) and on (m1o, mno).
  ASSERT_EQ(o1.samples.query_count(), 1u);
  ASSERT_EQ(on.samples.query_count(), 1u);
  const obs::QueryTaskSamples s1 = o1.samples.last_query();
  const obs::QueryTaskSamples sn = on.samples.last_query();
  ASSERT_EQ(s1.jobs.size(), 1u);
  ASSERT_EQ(sn.jobs.size(), 1u);
  ASSERT_EQ(s1.jobs[0].map_tasks.size(), sn.jobs[0].map_tasks.size());
  ASSERT_EQ(s1.jobs[0].reduce_tasks.size(), sn.jobs[0].reduce_tasks.size());
  auto same_sample = [](const obs::TaskSample& a, const obs::TaskSample& b) {
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.input_records, b.input_records);
    EXPECT_EQ(a.input_bytes, b.input_bytes);
    EXPECT_EQ(a.output_records, b.output_records);
    EXPECT_EQ(a.shuffle_bytes_raw, b.shuffle_bytes_raw);
    EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.key_groups, b.key_groups);
    EXPECT_EQ(a.tag_records, b.tag_records);
  };
  for (std::size_t i = 0; i < s1.jobs[0].map_tasks.size(); ++i)
    same_sample(s1.jobs[0].map_tasks[i], sn.jobs[0].map_tasks[i]);
  for (std::size_t i = 0; i < s1.jobs[0].reduce_tasks.size(); ++i)
    same_sample(s1.jobs[0].reduce_tasks[i], sn.jobs[0].reduce_tasks[i]);
  EXPECT_EQ(obs::analyze_query(s1).json(), obs::analyze_query(sn).json());
  // The analyzer consumes only sim-axis samples, so profiler-on runs
  // yield byte-identical analyses too.
  ASSERT_EQ(op1.samples.query_count(), 1u);
  ASSERT_EQ(opn.samples.query_count(), 1u);
  EXPECT_EQ(obs::analyze_query(s1).json(),
            obs::analyze_query(op1.samples.last_query()).json());
  EXPECT_EQ(obs::analyze_query(s1).json(),
            obs::analyze_query(opn.samples.last_query()).json());
  // The cluster view — per-node rollups, shuffle traffic matrix, slot
  // timeline — is a pure function of the same samples, so its full JSON
  // is byte-identical across pool sizes and with the profiler on too.
  const std::string cv1 = obs::build_cluster_view(s1).json();
  EXPECT_EQ(cv1, obs::build_cluster_view(sn).json());
  EXPECT_EQ(cv1, obs::build_cluster_view(op1.samples.last_query()).json());
  EXPECT_EQ(cv1, obs::build_cluster_view(opn.samples.last_query()).json());
  // Node samples follow the documented assignment at every pool size.
  for (std::size_t i = 0; i < s1.jobs[0].map_tasks.size(); ++i)
    EXPECT_EQ(s1.jobs[0].map_tasks[i].node, sn.jobs[0].map_tasks[i].node);

  // The plan view is a pure join of (prediction, samples, metrics). Fed
  // the pool-1 and pool-8 runs of the same job, the full report JSON —
  // estimated-vs-actual rows, q-errors, ranked misses — comes out byte-
  // identical: the plan axis cannot see host parallelism.
  obs::QueryPrediction pv_pred;
  pv_pred.profile = "engine";
  obs::JobPrediction pv_job;
  pv_job.name = "count";
  pv_job.input_rows = 3000;
  pv_job.reduce_records = 3000;
  pv_job.reduce_groups = 97;
  pv_pred.jobs.push_back(pv_job);
  auto as_query = [](const JobMetrics& j) {
    QueryMetrics q;
    q.jobs.push_back(j);
    q.wall_time_s = j.total_time_s();
    return q;
  };
  EXPECT_EQ(obs::join_plan_actuals(pv_pred, s1, as_query(m1o)).json(),
            obs::join_plan_actuals(pv_pred, sn, as_query(mno)).json());

  // The event journal's sim-axis rendering is byte-identical across pool
  // sizes: sequence numbers, ordering, timestamps and fields all come
  // from the orchestrating thread's deterministic schedule. (Retries are
  // active at task_failure_rate 0.2, so fault events are exercised too.)
  EXPECT_GT(o1.events.total_emitted(), 0u);
  EXPECT_EQ(o1.events.jsonl(obs::EventLog::IncludeWall::No),
            on.events.jsonl(obs::EventLog::IncludeWall::No));
  EXPECT_EQ(o1.events.jsonl(obs::EventLog::IncludeWall::No),
            op1.events.jsonl(obs::EventLog::IncludeWall::No));
  EXPECT_EQ(o1.events.jsonl(obs::EventLog::IncludeWall::No),
            opn.events.jsonl(obs::EventLog::IncludeWall::No));
}

TEST(PoolInvariance, FullObservabilityDoesNotPerturbQueryRuns) {
  // Database-level counterpart of the engine test above: a full DAG run
  // with every surface active (journal, flight recorder, plan view)
  // produces the same simulated metrics and analyzer output as a bare
  // run, and its sim-axis journal is pool-independent.
  ClicksConfig c;
  c.users = 120;
  auto clicks = generate_clicks(c);

  auto run_query = [&](obs::ObsContext* obs) {
    Database db(ClusterConfig::small_local(50));
    db.create_table("clicks", clicks);
    if (obs) db.set_observer(obs);
    return db.run(queries::qcsa().sql, TranslatorProfile::hive());
  };

  const auto plain = run_query(nullptr);
  obs::ObsContext full;
  const auto observed = run_query(&full);

  ASSERT_FALSE(plain.metrics.failed());
  EXPECT_DOUBLE_EQ(plain.metrics.total_time_s(), observed.metrics.total_time_s());
  EXPECT_DOUBLE_EQ(plain.metrics.wall_time_s, observed.metrics.wall_time_s);
  ASSERT_EQ(plain.metrics.jobs.size(), observed.metrics.jobs.size());
  for (std::size_t i = 0; i < plain.metrics.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.metrics.jobs[i].map_time_s,
                     observed.metrics.jobs[i].map_time_s);
    EXPECT_EQ(plain.metrics.jobs[i].shuffle_bytes_wire,
              observed.metrics.jobs[i].shuffle_bytes_wire);
  }

  // The flight recorder captured the run with the values just compared.
  ASSERT_EQ(full.history.size(), 1u);
  obs::QueryHistoryRecord rec;
  ASSERT_TRUE(full.history.at(0, &rec));
  EXPECT_EQ(rec.sql, queries::qcsa().sql);
  EXPECT_EQ(rec.profile, "hive");
  EXPECT_EQ(rec.jobs, static_cast<int>(plain.metrics.jobs.size()));
  EXPECT_DOUBLE_EQ(rec.sim_wall_s, plain.metrics.wall_time_s);
  EXPECT_FALSE(rec.failed);
  EXPECT_FALSE(rec.analyzer_text.empty());

  // And a second fully-observed run is deterministic on the sim axis:
  // identical journal (modulo wall clock) and identical analyzer digest.
  obs::ObsContext again;
  run_query(&again);
  EXPECT_EQ(full.events.jsonl(obs::EventLog::IncludeWall::No),
            again.events.jsonl(obs::EventLog::IncludeWall::No));
  obs::QueryHistoryRecord rec2;
  ASSERT_TRUE(again.history.at(0, &rec2));
  EXPECT_EQ(rec.digest, rec2.digest);
  EXPECT_EQ(rec.analyzer_text, rec2.analyzer_text);
  // The cluster view built over a full DAG run is deterministic too —
  // and building it is a pure read of the samples, so the metrics
  // equality with the bare run above already proves it perturbs nothing.
  EXPECT_EQ(obs::build_cluster_view(full.samples.last_query()).json(),
            obs::build_cluster_view(again.samples.last_query()).json());
  // Each run's record holds its joined plan view — while the metrics
  // equality with the bare run above already proved it perturbed
  // nothing — and its full report JSON is deterministic.
  ASSERT_TRUE(rec.plan.has_value());
  ASSERT_TRUE(rec2.plan.has_value());
  EXPECT_TRUE(rec.plan->executed);
  EXPECT_DOUBLE_EQ(rec.plan->actual_wall_s, plain.metrics.wall_time_s);
  EXPECT_EQ(rec.plan->json(/*full=*/true), rec2.plan->json(/*full=*/true));

  // Turning the host profiler on changes nothing on the simulated axis:
  // same metrics, same journal, same digest — it only adds host phases.
  obs::ObsContext profiled;
  profiled.profiler.set_enabled(true);
  const auto prof_run = run_query(&profiled);
  EXPECT_DOUBLE_EQ(plain.metrics.total_time_s(),
                   prof_run.metrics.total_time_s());
  EXPECT_DOUBLE_EQ(plain.metrics.wall_time_s, prof_run.metrics.wall_time_s);
  EXPECT_EQ(full.events.jsonl(obs::EventLog::IncludeWall::No),
            profiled.events.jsonl(obs::EventLog::IncludeWall::No));
  obs::QueryHistoryRecord rec3;
  ASSERT_TRUE(profiled.history.at(0, &rec3));
  EXPECT_EQ(rec.digest, rec3.digest);
  EXPECT_EQ(rec.analyzer_text, rec3.analyzer_text);
  EXPECT_GT(profiled.profiler.phase_count(), 0u);
  EXPECT_GT(profiled.profiler.process_cpu_ns(), 0u);
}

// ---- vectorized execution: a pure host-side optimization ----

TEST(VectorizedModes, SimulationIsBitIdenticalOnOffAcrossPoolSizes) {
  // Each input runs four ways: columnar batch kernels on/off
  // (YSMART_VECTORIZED) crossed with host pool sizes 1 and 8.
  // Vectorization may only change host wall-clock — everything simulated
  // must match byte for byte across all four runs: metrics, results,
  // analyzer JSON, and the sim-axis journal. The inputs: the Fig. 9
  // workload (Q21 "Left Outer Join1" sub-tree, a merged CMF job under
  // the YSmart profile), and two CombineAgg jobs, whose map side is the
  // hash aggregation: Q-AGG over a clicks table of many blocks, and a
  // filtered GROUP BY on a string key.
  TpchConfig small;
  small.orders = 1500;
  small.parts = 200;
  small.customers = 150;
  small.suppliers = 20;
  const TpchData tpch = generate_tpch(small);
  ClicksConfig cc;
  cc.users = 2000;
  const std::shared_ptr<const Table> clicks = generate_clicks(cc);

  struct Input {
    std::string sql;
    std::uint64_t hdfs_block_bytes;
    bool combine_agg;
  };
  const std::uint64_t default_block = ClusterConfig{}.hdfs_block_bytes;
  const Input inputs[] = {
      {queries::q21_subtree().sql, default_block, false},
      {queries::qagg().sql, 256 << 10, true},
      // The filter keeps about a quarter of the orders.
      {"SELECT o_orderstatus, count(*) AS n, sum(o_totalprice) AS s, "
       "min(o_orderdate) AS d FROM orders WHERE o_totalprice > 150000 "
       "GROUP BY o_orderstatus",
       default_block, true},
  };

  struct Outcome {
    QueryRunResult run;
    std::string journal;
    std::string analyzer;
    std::string digest;
  };
  const bool saved = vectorized_enabled();
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.sql);
    auto run_mode = [&](bool vectorized, int pool_size) {
      set_vectorized_enabled(vectorized);
      ThreadPool pool(pool_size);
      ClusterConfig cluster = ClusterConfig::small_local(1.0);
      cluster.hdfs_block_bytes = in.hdfs_block_bytes;
      Database db(cluster, &pool);
      db.create_table("lineitem", tpch.lineitem);
      db.create_table("orders", tpch.orders);
      db.create_table("supplier", tpch.supplier);
      db.create_table("nation", tpch.nation);
      db.create_table("clicks", clicks);
      if (in.combine_agg) {
        const TranslatedQuery tq =
            db.translate_query(in.sql, TranslatorProfile::ysmart());
        EXPECT_EQ(tq.jobs.size(), 1u);
        EXPECT_EQ(tq.jobs.at(0).kind, TranslatedJob::Kind::CombineAgg);
      }
      obs::ObsContext obs;
      db.set_observer(&obs);
      Outcome o{db.run(in.sql, TranslatorProfile::ysmart()),
                obs.events.jsonl(obs::EventLog::IncludeWall::No), "", ""};
      obs::QueryHistoryRecord rec;
      if (obs.history.at(0, &rec)) {
        o.analyzer = rec.analyzer_text;
        o.digest = rec.digest;
      }
      return o;
    };
    const Outcome base = run_mode(true, 1);
    set_vectorized_enabled(saved);
    ASSERT_FALSE(base.run.metrics.failed());
    EXPECT_FALSE(base.analyzer.empty());
    ASSERT_GT(base.run.result->row_count(), 0u);
    if (in.hdfs_block_bytes != default_block)
      EXPECT_GT(base.run.metrics.jobs.at(0).map.tasks, 1u);

    struct ModeCase {
      bool vectorized;
      int pool;
    };
    for (const ModeCase mc :
         {ModeCase{true, 8}, ModeCase{false, 1}, ModeCase{false, 8}}) {
      SCOPED_TRACE(std::string("vectorized=") + (mc.vectorized ? "on" : "off") +
                   " pool=" + std::to_string(mc.pool));
      const Outcome o = run_mode(mc.vectorized, mc.pool);
      set_vectorized_enabled(saved);
      ASSERT_FALSE(o.run.metrics.failed());
      // Exact equality on the simulated doubles, not just approximate.
      EXPECT_EQ(base.run.metrics.total_time_s(), o.run.metrics.total_time_s());
      EXPECT_EQ(base.run.metrics.wall_time_s, o.run.metrics.wall_time_s);
      ASSERT_EQ(base.run.metrics.jobs.size(), o.run.metrics.jobs.size());
      for (std::size_t i = 0; i < base.run.metrics.jobs.size(); ++i) {
        const auto& a = base.run.metrics.jobs[i];
        const auto& b = o.run.metrics.jobs[i];
        EXPECT_EQ(a.map_time_s, b.map_time_s) << "job " << i;
        EXPECT_EQ(a.reduce_time_s, b.reduce_time_s) << "job " << i;
        EXPECT_EQ(a.shuffle_bytes_raw, b.shuffle_bytes_raw) << "job " << i;
        EXPECT_EQ(a.shuffle_bytes_wire, b.shuffle_bytes_wire) << "job " << i;
        EXPECT_EQ(a.dfs_write_bytes, b.dfs_write_bytes) << "job " << i;
        EXPECT_EQ(a.reduce.output_records, b.reduce.output_records)
            << "job " << i;
      }
      // Identical result rows in identical order.
      ASSERT_NE(base.run.result, nullptr);
      ASSERT_NE(o.run.result, nullptr);
      ASSERT_EQ(base.run.result->row_count(), o.run.result->row_count());
      const std::vector<Row> base_rows = base.run.result->rows();
      const std::vector<Row> rows = o.run.result->rows();
      for (std::size_t i = 0; i < base_rows.size(); ++i)
        EXPECT_EQ(compare_rows(base_rows[i], rows[i]),
                  std::strong_ordering::equal);
      // Analyzer JSON and the sim-axis event journal, byte for byte.
      EXPECT_EQ(base.analyzer, o.analyzer);
      EXPECT_EQ(base.digest, o.digest);
      EXPECT_EQ(base.journal, o.journal);
    }
  }
}

// ---- the plan view on the Fig. 9 workload ----

TEST(PlanView, Q21PlanViewDoesNotPerturbSim) {
  // Q21's "Left Outer Join1" sub-tree — the fig09 workload — executed
  // with an observer attached, so the plan view predicts and joins. Its
  // actual simulated seconds must equal a bare run byte-for-byte (the
  // plan view cannot move the fig09 baseline).
  TpchConfig small;
  small.orders = 1500;
  small.parts = 200;
  small.customers = 150;
  small.suppliers = 20;
  const TpchData tpch = generate_tpch(small);
  auto make_db = [&] {
    auto db = std::make_unique<Database>(ClusterConfig::small_local(1.0));
    db->create_table("lineitem", tpch.lineitem);
    db->create_table("orders", tpch.orders);
    db->create_table("supplier", tpch.supplier);
    db->create_table("nation", tpch.nation);
    return db;
  };
  const std::string sql = queries::q21_subtree().sql;
  const auto bare = make_db()->run(sql, TranslatorProfile::ysmart());
  ASSERT_FALSE(bare.metrics.failed());

  auto db = make_db();
  obs::ObsContext ctx;
  db->set_observer(&ctx);
  const auto observed = db->run(sql, TranslatorProfile::ysmart());
  ASSERT_FALSE(observed.metrics.failed());
  obs::QueryHistoryRecord rec;
  ASSERT_TRUE(ctx.history.at(0, &rec));
  ASSERT_TRUE(rec.plan.has_value());

  EXPECT_EQ(observed.metrics.wall_time_s, bare.metrics.wall_time_s);
  EXPECT_EQ(observed.metrics.total_time_s(), bare.metrics.total_time_s());
  EXPECT_DOUBLE_EQ(rec.plan->actual_wall_s, bare.metrics.wall_time_s);
  ASSERT_TRUE(rec.plan->executed);
}

// ---- explain output is deterministic ----

TEST(ExplainStability, SameTextEveryTime) {
  Database db(ClusterConfig::small_local(1.0));
  Schema cl;
  cl.add("uid", ValueType::Int);
  cl.add("page_id", ValueType::Int);
  cl.add("cid", ValueType::Int);
  cl.add("ts", ValueType::Int);
  auto t = std::make_shared<Table>(cl);
  t->append({Value{1}, Value{2}, Value{1}, Value{3}});
  db.create_table("clicks", t);
  auto a = db.explain(queries::qcsa().sql, TranslatorProfile::ysmart());
  auto b = db.explain(queries::qcsa().sql, TranslatorProfile::ysmart());
  // The scratch run counter differs; normalize it away.
  auto scrub = [](std::string s) {
    for (std::size_t p; (p = s.find("/explain")) != std::string::npos;)
      s.erase(p, s.find('/', p + 1) == std::string::npos
                     ? s.size() - p
                     : s.find_first_of(" \n", p) - p);
    return s;
  };
  EXPECT_EQ(scrub(a), scrub(b));
}

}  // namespace
}  // namespace ysmart
