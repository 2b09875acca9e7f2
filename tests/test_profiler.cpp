// Tests for the host-axis hotspot profiler: thread-local prof:: counter
// gating, allocation accounting, phase aggregation through TaskClock,
// the reconciliation contract between worker CPU / busy-wall / phase
// wall / tracer spans, and the folded-stack and table exports.
// This binary also runs under TSan in CI as the profiler-on query.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/prof_counters.h"
#include "common/thread_pool.h"
#include "mr/engine.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "storage/table.h"

namespace ysmart {
namespace {

// Clock-noise tolerance for the reconciliation contract: CPU clocks tick
// at ~1-4 ms granularity on some kernels and every comparison below sums
// several independently-sampled intervals, so allow a fixed slack plus a
// 25% proportional band (documented in obs/profiler.h).
constexpr std::uint64_t kClockSlackNs = 20'000'000;  // 20 ms
constexpr double kTolerance = 1.25;

std::uint64_t padded(std::uint64_t ns) {
  return static_cast<std::uint64_t>(static_cast<double>(ns) * kTolerance) +
         kClockSlackNs;
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
  Schema s;
  s.add("k", ValueType::Int);
  auto t = std::make_shared<Table>(s);
  for (int i = 0; i < n; ++i) t->append({Value{i % distinct}});
  return t;
}

// ---- thread-local counter gating ----

TEST(ProfCounters, DisabledCountsNothing) {
  ASSERT_FALSE(prof::enabled());
  const prof::ThreadCounters before = prof::thread_snapshot();
  prof::count(prof::kCellCompares);
  prof::count(prof::kRowsEvaluated, 100);
  std::vector<int>* v = new std::vector<int>(1000);
  delete v;
  const prof::ThreadCounters after = prof::thread_snapshot();
  EXPECT_EQ(after.dispatch[prof::kCellCompares],
            before.dispatch[prof::kCellCompares]);
  EXPECT_EQ(after.dispatch[prof::kRowsEvaluated],
            before.dispatch[prof::kRowsEvaluated]);
  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(after.frees, before.frees);
}

TEST(ProfCounters, EnabledCountsExactDispatchDeltas) {
  prof::acquire_enabled();
  const prof::ThreadCounters before = prof::thread_snapshot();
  for (int i = 0; i < 7; ++i) prof::count(prof::kCellCompares);
  prof::count(prof::kOperatorRows, 41);
  const prof::ThreadCounters after = prof::thread_snapshot();
  prof::release_enabled();
  EXPECT_EQ(after.dispatch[prof::kCellCompares] -
                before.dispatch[prof::kCellCompares],
            7u);
  EXPECT_EQ(after.dispatch[prof::kOperatorRows] -
                before.dispatch[prof::kOperatorRows],
            41u);
  // Once released, counting stops again.
  ASSERT_FALSE(prof::enabled());
  prof::count(prof::kCellCompares);
  EXPECT_EQ(prof::thread_snapshot().dispatch[prof::kCellCompares],
            after.dispatch[prof::kCellCompares]);
}

TEST(ProfCounters, EnableIsRefcountedAcrossOverlappingHolders) {
  prof::acquire_enabled();
  prof::acquire_enabled();
  prof::release_enabled();
  EXPECT_TRUE(prof::enabled());  // one holder still out
  prof::release_enabled();
  EXPECT_FALSE(prof::enabled());
}

TEST(ProfCounters, AllocationAccountingTracksNewAndDelete) {
  prof::acquire_enabled();
  const prof::ThreadCounters before = prof::thread_snapshot();
  constexpr std::size_t kBytes = 1 << 16;
  char* p = new char[kBytes];
  std::memset(p, 0, kBytes);  // keep the allocation observable
  const prof::ThreadCounters mid = prof::thread_snapshot();
  delete[] p;
  const prof::ThreadCounters after = prof::thread_snapshot();
  prof::release_enabled();
  EXPECT_GE(mid.allocs - before.allocs, 1u);
  EXPECT_GE(mid.alloc_bytes - before.alloc_bytes, kBytes);
  EXPECT_GE(after.frees - mid.frees, 1u);
}

TEST(ProfCounters, CounterNamesAreStableSnakeCase) {
  for (int c = 0; c < prof::kNumCounters; ++c) {
    const char* name = prof::counter_name(c);
    ASSERT_NE(name, nullptr);
    for (const char* q = name; *q; ++q)
      EXPECT_TRUE((*q >= 'a' && *q <= 'z') || *q == '_') << name;
  }
  EXPECT_STREQ(prof::counter_name(prof::kCellCompares), "cell_compares");
  EXPECT_STREQ(prof::counter_name(prof::kRawKeyCompares), "raw_key_compares");
}

// ---- HostProfiler phase lifecycle ----

TEST(HostProfiler, DisabledPhaseBeginReturnsNullAndTaskClockIsInert) {
  obs::HostProfiler prof;
  EXPECT_FALSE(prof.enabled());
  EXPECT_EQ(prof.phase_begin(1, "j", "map"), nullptr);
  {
    obs::TaskClock tc(nullptr);  // must be a no-op, not a crash
  }
  {
    obs::PhaseClock pc(nullptr, 1, "j", "map");
    EXPECT_EQ(pc.agg(), nullptr);
    obs::TaskClock tc(pc.agg());
  }
  EXPECT_EQ(prof.phase_count(), 0u);
  EXPECT_TRUE(prof.snapshot().empty());
}

TEST(HostProfiler, AggregatesExactDispatchCountsAcrossPoolChunks) {
  obs::HostProfiler prof;
  prof.set_enabled(true);
  ThreadPool pool(4);
  constexpr std::size_t kRows = 10'000;
  {
    obs::PhaseClock pc(&prof, -1, "job", "map");
    ASSERT_NE(pc.agg(), nullptr);
    pool.parallel_for(kRows, 128, [&](std::size_t b, std::size_t e) {
      obs::TaskClock tc(pc.agg());
      for (std::size_t i = b; i < e; ++i) {
        prof::count(prof::kRowsEvaluated);
        // Touch the allocator so alloc accounting has work to see.
        std::string s(64, 'x');
        s[i % 64] = 'y';
        if (s[0] == 'q') prof::count(prof::kCellCompares);
      }
    });
  }
  ASSERT_EQ(prof.phase_count(), 1u);
  const std::vector<obs::HostPhase> phases = prof.snapshot();
  ASSERT_EQ(phases.size(), 1u);
  const obs::HostPhase& p = phases[0];
  EXPECT_EQ(p.job, "job");
  EXPECT_EQ(p.phase, "map");
  // Dispatch counters aggregate exactly: every chunk reported its delta.
  EXPECT_EQ(p.dispatch[prof::kRowsEvaluated], kRows);
  EXPECT_GT(p.chunks, 0u);
  EXPECT_GT(p.busy_wall_ns, 0u);
  EXPECT_GT(p.phase_wall_ns, 0u);
  EXPECT_GT(p.allocs, 0u);
  // Reconciliation: CPU cannot exceed busy wall; busy wall cannot exceed
  // phase wall x (workers + caller), both within clock tolerance.
  EXPECT_LE(p.cpu_ns, padded(p.busy_wall_ns));
  EXPECT_LE(p.busy_wall_ns, padded(p.phase_wall_ns * (pool.size() + 1)));
}

TEST(HostProfiler, ClearDropsPhasesButKeepsEnabledState) {
  obs::HostProfiler prof;
  prof.set_enabled(true);
  {
    obs::PhaseClock pc(&prof, -1, "j", "map");
  }
  ASSERT_EQ(prof.phase_count(), 1u);
  prof.clear();
  EXPECT_EQ(prof.phase_count(), 0u);
  EXPECT_TRUE(prof.enabled());
  EXPECT_EQ(prof.process_cpu_ns(), 0u);
}

// ---- full engine run: phases, reconciliation, exports ----

class ProfiledEngineRun : public ::testing::Test {
 protected:
  void SetUp() override {
    obs_.profiler.set_enabled(true);
    auto cfg = ClusterConfig::ec2(8, 1.0);
    Dfs dfs(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication);
    dfs.write("/in", key_rows(3000, 97));
    ThreadPool pool(8);
    Engine engine(dfs, cfg, &pool);
    engine.set_obs(&obs_);
    metrics_ = engine.run(counting_spec());
    phases_ = obs_.profiler.snapshot();
  }

  const obs::HostPhase* find(const std::string& phase) const {
    for (const auto& p : phases_)
      if (p.phase == phase) return &p;
    return nullptr;
  }

  obs::ObsContext obs_;
  JobMetrics metrics_;
  std::vector<obs::HostPhase> phases_;
};

TEST_F(ProfiledEngineRun, RecordsEveryEnginePhase) {
  ASSERT_FALSE(metrics_.failed);
  for (const char* phase : {"map", "shuffle-sort", "reduce", "post-job"}) {
    const obs::HostPhase* p = find(phase);
    ASSERT_NE(p, nullptr) << "missing phase " << phase;
    EXPECT_EQ(p->job, "count");
    EXPECT_GT(p->chunks, 0u) << phase;
    EXPECT_GT(p->phase_wall_ns, 0u) << phase;
  }
  // The hot loops actually dispatched through the counted paths: cells
  // are encoded while mapping (into the map output arenas), and keys are
  // compared where the shuffle-sort pass sorts each partition and the
  // reduce pass groups it. The map phase no longer sorts.
  const obs::HostPhase* map = find("map");
  EXPECT_GT(map->dispatch[prof::kCellsEncoded], 0u);
  EXPECT_EQ(map->dispatch[prof::kRawKeyCompares], 0u);
  const obs::HostPhase* sort = find("shuffle-sort");
  const obs::HostPhase* reduce = find("reduce");
  EXPECT_GT(sort->dispatch[prof::kRawKeyCompares], 0u);
  EXPECT_GT(reduce->dispatch[prof::kRawKeyCompares], 0u);
  EXPECT_GT(reduce->dispatch[prof::kCellsDecoded], 0u);
}

TEST_F(ProfiledEngineRun, PhasesSatisfyTheReconciliationContract) {
  ASSERT_FALSE(phases_.empty());
  for (const auto& p : phases_) {
    // Summed worker CPU <= summed busy wall: a thread cannot burn more
    // CPU than the wall time it was running.
    EXPECT_LE(p.cpu_ns, padded(p.busy_wall_ns)) << p.job << "/" << p.phase;
    // Summed busy wall <= phase wall x (pool + caller): at most
    // pool+1 threads can be inside the phase at once.
    EXPECT_LE(p.busy_wall_ns, padded(p.phase_wall_ns * 9))
        << p.job << "/" << p.phase;
  }
  // Phase walls reconcile with the tracer's wall-axis spans: the
  // PhaseClock brackets the same region the span covers, so the span
  // can only be (tolerably) wider.
  const std::vector<obs::Span> spans = obs_.tracer.spans();
  int matched = 0;
  for (const auto& p : phases_) {
    if (p.span_id < 0) continue;
    for (const auto& s : spans) {
      if (s.id != p.span_id) continue;
      ++matched;
      const auto span_wall_ns =
          static_cast<std::uint64_t>(s.wall_dur_us * 1000.0);
      EXPECT_LE(p.phase_wall_ns, padded(span_wall_ns))
          << p.job << "/" << p.phase;
    }
  }
  EXPECT_GT(matched, 0);
}

TEST_F(ProfiledEngineRun, FoldedStacksExportIsWellFormed) {
  const std::string folded = obs_.profiler.folded_stacks(obs_.tracer);
  ASSERT_FALSE(folded.empty());
  std::istringstream iss(folded);
  std::string line;
  int lines = 0;
  bool saw_map = false;
  while (std::getline(iss, line)) {
    ++lines;
    // "frame;frame;... <weight>" — last space separates a positive int.
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    ASSERT_GT(sp, 0u) << line;
    const std::string weight = line.substr(sp + 1);
    ASSERT_FALSE(weight.empty()) << line;
    for (char c : weight) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    EXPECT_GT(std::stoull(weight), 0u) << line;
    if (line.find("map") != std::string::npos) saw_map = true;
  }
  EXPECT_GE(lines, 4);  // map, shuffle-sort, reduce, post-job at least
  EXPECT_TRUE(saw_map);
  // Span ancestry made it into the paths (job span is a frame).
  EXPECT_NE(folded.find(';'), std::string::npos);
}

TEST_F(ProfiledEngineRun, HotspotsTableRanksAndTotalsDispatch) {
  const std::string table = obs_.profiler.hotspots_table();
  EXPECT_NE(table.find("host hotspots"), std::string::npos);
  EXPECT_NE(table.find("count/map"), std::string::npos);
  EXPECT_NE(table.find("dispatch totals:"), std::string::npos);
  EXPECT_NE(table.find("cell_compares"), std::string::npos);
}

// ---- query-level process CPU bracket through the Database API ----

TEST(HostProfilerQuery, ProcessCpuCoversTheSummedPhaseCpu) {
  Database db(ClusterConfig::small_local(50));
  db.create_table("t", key_rows(5000, 31));
  obs::ObsContext obs;
  obs.profiler.set_enabled(true);
  db.set_observer(&obs);
  const auto run =
      db.run("SELECT k, count(*) AS n FROM t GROUP BY k ORDER BY k",
             TranslatorProfile::ysmart());
  ASSERT_FALSE(run.metrics.failed());

  const std::uint64_t proc = obs.profiler.process_cpu_ns();
  EXPECT_GT(proc, 0u);
  std::uint64_t phase_cpu = 0;
  bool saw_translate = false;
  for (const auto& p : obs.profiler.snapshot()) {
    phase_cpu += p.cpu_ns;
    if (p.phase == "translate") saw_translate = true;
  }
  EXPECT_TRUE(saw_translate);
  // Phase CPU is a subset of the query's whole-process CPU (the bracket
  // also covers planning, DFS writes, result collection, ...).
  EXPECT_LE(phase_cpu, padded(proc));
}

}  // namespace
}  // namespace ysmart
