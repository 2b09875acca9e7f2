// Tests for the cluster axis (src/obs/cluster_view.h): node-identity
// conventions, the exact traffic-matrix row/column invariant, the LPT
// timeline replay reproducing the engine's phase makespans bit-for-bit,
// sparsification at paper-scale node counts, the cluster doctor, and
// deterministic JSON rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "data/queries.h"
#include "mr/cluster.h"
#include "obs/cluster_view.h"
#include "obs/obs.h"
#include "storage/table.h"

namespace ysmart {
namespace {

std::shared_ptr<Table> wide_clicks(int rows) {
  Schema cl;
  cl.add("uid", ValueType::Int);
  cl.add("page_id", ValueType::Int);
  cl.add("cid", ValueType::Int);
  cl.add("ts", ValueType::Int);
  auto t = std::make_shared<Table>(cl);
  for (int i = 0; i < rows; ++i)
    t->append({Value{i % 97}, Value{i % 31}, Value{i % 23}, Value{i}});
  return t;
}

constexpr const char* kGroupBySql =
    "SELECT cid, count(*) AS n FROM clicks GROUP BY cid";

/// Run one query on an 11-node EC2 cluster with samples retained, and
/// hand back both the engine's metrics and the sample snapshot.
struct RunOutput {
  QueryRunResult run;
  obs::QueryTaskSamples samples;
};

RunOutput run_sampled(const std::string& sql, int nodes = 11) {
  Database db(ClusterConfig::ec2(nodes, 50));
  db.create_table("clicks", wide_clicks(3000));
  obs::ObsContext ctx;
  db.set_observer(&ctx);
  RunOutput out;
  out.run = db.run(sql, TranslatorProfile::ysmart());
  out.samples = ctx.samples.last_query();
  return out;
}

TEST(ClusterView, NodeConventionsMatchTheDocumentedAssignment) {
  const RunOutput out = run_sampled(kGroupBySql);
  ASSERT_FALSE(out.run.metrics.failed());
  ASSERT_FALSE(out.samples.jobs.empty());
  for (const auto& js : out.samples.jobs) {
    EXPECT_EQ(js.worker_nodes, 11);
    for (std::size_t i = 0; i < js.map_tasks.size(); ++i)
      EXPECT_EQ(js.map_tasks[i].node,
                static_cast<int>(i) % js.worker_nodes)
          << "map task " << i;
    for (const auto& t : js.reduce_tasks)
      EXPECT_EQ(t.node, t.index % js.worker_nodes)
          << "reduce partition " << t.index;
  }
}

TEST(ClusterView, TrafficMatrixRowAndColumnSumsAreExact) {
  const RunOutput out = run_sampled(kGroupBySql);
  ASSERT_FALSE(out.run.metrics.failed());
  const obs::ClusterReport rep = obs::build_cluster_view(out.samples);
  ASSERT_EQ(rep.worker_nodes, 11);
  ASSERT_FALSE(rep.traffic.sparse);

  // Row sums: exactly what each map node emitted (pre-expansion wire
  // bytes), summed in uint64 so equality is to the byte.
  std::vector<std::uint64_t> want_rows(11, 0), want_cols(11, 0);
  std::uint64_t want_total = 0, reduce_side_total = 0;
  for (const auto& js : out.samples.jobs) {
    for (const auto& t : js.map_tasks)
      for (std::size_t p = 0; p < t.partition_bytes.size(); ++p) {
        want_rows[static_cast<std::size_t>(t.node)] += t.partition_bytes[p];
        want_cols[p % 11] += t.partition_bytes[p];
        want_total += t.partition_bytes[p];
      }
    for (const auto& t : js.reduce_tasks)
      reduce_side_total += t.shuffle_bytes_prescale;
  }
  ASSERT_GT(want_total, 0u) << "group-by must shuffle something";
  // The two independently recorded sides agree exactly: the map side's
  // per-partition emission equals the reduce side's per-partition
  // receipt.
  EXPECT_EQ(want_total, reduce_side_total);
  EXPECT_EQ(rep.traffic.total_bytes, want_total);
  EXPECT_EQ(rep.traffic.row_bytes, want_rows);
  EXPECT_EQ(rep.traffic.col_bytes, want_cols);

  // Each reduce partition's column contribution reconciles per node.
  std::vector<std::uint64_t> col_from_reduce(11, 0);
  for (const auto& js : out.samples.jobs)
    for (const auto& t : js.reduce_tasks)
      col_from_reduce[static_cast<std::size_t>(t.node)] +=
          t.shuffle_bytes_prescale;
  EXPECT_EQ(col_from_reduce, rep.traffic.col_bytes);

  // The dense grid is consistent with its own marginals.
  ASSERT_EQ(rep.traffic.dense.size(), 11u);
  for (int i = 0; i < 11; ++i) {
    std::uint64_t row = 0, col = 0;
    for (int j = 0; j < 11; ++j) {
      row += rep.traffic.dense[static_cast<std::size_t>(i)]
                              [static_cast<std::size_t>(j)];
      col += rep.traffic.dense[static_cast<std::size_t>(j)]
                              [static_cast<std::size_t>(i)];
    }
    EXPECT_EQ(row, rep.traffic.row_bytes[static_cast<std::size_t>(i)]);
    EXPECT_EQ(col, rep.traffic.col_bytes[static_cast<std::size_t>(i)]);
  }
  // And the per-node rollup mirrors the marginals.
  for (const auto& n : rep.nodes) {
    EXPECT_EQ(n.shuffle_bytes_out,
              rep.traffic.row_bytes[static_cast<std::size_t>(n.node)]);
    EXPECT_EQ(n.shuffle_bytes_in,
              rep.traffic.col_bytes[static_cast<std::size_t>(n.node)]);
  }
}

TEST(ClusterView, TimelineReplayReproducesPhaseMakespansExactly) {
  const RunOutput out = run_sampled(kGroupBySql);
  ASSERT_FALSE(out.run.metrics.failed());
  const obs::ClusterReport rep = obs::build_cluster_view(out.samples);

  // The makespan, summed from the executor's wave records, equals its
  // modeled end-to-end time bit-for-bit.
  EXPECT_EQ(rep.makespan_s, out.run.metrics.wall_time_s);

  ASSERT_EQ(rep.jobs.size(), out.samples.jobs.size());
  int map_events = 0;
  for (std::size_t ji = 0; ji < out.samples.jobs.size(); ++ji) {
    const obs::JobTaskSamples& js = out.samples.jobs[ji];
    const double map_start = rep.jobs[ji].start_s + js.sched_delay_s;
    for (const auto& ev : rep.timeline) {
      if (ev.job != static_cast<int>(ji)) continue;
      // Lanes stay within the cluster and events within the job's span.
      EXPECT_GE(ev.node, 0);
      EXPECT_LT(ev.node, rep.worker_nodes);
      EXPECT_GE(ev.slot, 0);
      if (!ev.reduce) {
        EXPECT_GE(ev.start_s, map_start);
        ++map_events;
      }
    }
    // The replay runs the same LPT fold over the same values as
    // CostModel::makespan, relative to the phase start — so the phase
    // makespan matches bit-for-bit, not approximately.
    EXPECT_EQ(rep.jobs[ji].map_replay_s, js.map_time_s) << js.job_name;
    if (!js.map_only && !js.reduce_tasks.empty() &&
        js.target_reduce_tasks == js.reduce_tasks.size()) {
      // Unexpanded reduce phases replay exactly too; expansion-scaled
      // phases replay only the simulated partitions (documented).
      EXPECT_EQ(rep.jobs[ji].reduce_replay_s, js.reduce_time_s)
          << js.job_name;
    }
  }
  // Every map task got a timeline event.
  std::size_t total_map_tasks = 0;
  for (const auto& js : out.samples.jobs) total_map_tasks += js.map_tasks.size();
  EXPECT_EQ(static_cast<std::size_t>(map_events), total_map_tasks);
}

TEST(ClusterView, JsonIsDeterministicAcrossIdenticalRuns) {
  const RunOutput a = run_sampled(kGroupBySql);
  const RunOutput b = run_sampled(kGroupBySql);
  const std::string ja = obs::build_cluster_view(a.samples).json();
  const std::string jb = obs::build_cluster_view(b.samples).json();
  EXPECT_EQ(ja, jb);
  // Compact form (the analyzer embedding) is deterministic too, and
  // strictly smaller than the full document.
  const std::string ca =
      obs::build_cluster_view(a.samples).json(/*full=*/false);
  EXPECT_EQ(ca, obs::build_cluster_view(b.samples).json(/*full=*/false));
  EXPECT_LT(ca.size(), ja.size());
  EXPECT_EQ(ca.find("\"timeline\""), std::string::npos);
  EXPECT_EQ(ca.find("\"traffic\""), std::string::npos);
}

TEST(ClusterView, ChromeEventsCarryPid3AndTheSimOffset) {
  const RunOutput out = run_sampled(kGroupBySql);
  const obs::ClusterReport rep = obs::build_cluster_view(out.samples);
  ASSERT_FALSE(rep.timeline.empty());
  const auto base = rep.chrome_events(0.0);
  const auto shifted = rep.chrome_events(100.0);
  ASSERT_EQ(base.size(), shifted.size());
  int complete_events = 0;
  for (const auto& ev : base) {
    EXPECT_NE(ev.find("\"pid\":3"), std::string::npos) << ev;
    if (ev.find("\"ph\":\"X\"") != std::string::npos) ++complete_events;
  }
  EXPECT_EQ(complete_events, static_cast<int>(rep.timeline.size()));
  EXPECT_NE(base[0].find("cluster nodes"), std::string::npos);
  // The offset shifts complete-event timestamps (100 s = 1e8 us) and
  // changes nothing else: metadata events stay byte-identical.
  EXPECT_EQ(base[0], shifted[0]);
  bool saw_shift = false;
  for (std::size_t i = 0; i < base.size(); ++i)
    if (base[i] != shifted[i]) saw_shift = true;
  EXPECT_TRUE(saw_shift);
}

// ---- synthetic paper-scale cluster: sparsification and the doctor ----

obs::QueryTaskSamples synthetic_query(int nodes, int map_tasks,
                                      int partitions) {
  obs::QueryTaskSamples q;
  obs::JobTaskSamples js;
  js.job_name = "JOB1";
  js.wave = 0;
  js.worker_nodes = nodes;
  js.map_slots = nodes;
  js.reduce_slots = nodes;
  js.map_time_s = 10;
  js.reduce_time_s = 5;
  js.target_reduce_tasks = static_cast<std::uint64_t>(partitions);
  std::vector<std::uint64_t> col(static_cast<std::size_t>(partitions), 0);
  for (int i = 0; i < map_tasks; ++i) {
    obs::TaskSample t;
    t.index = i;
    t.node = i % nodes;
    t.sim_seconds = 1.0 + 0.001 * i;
    t.local_read = i % 3 != 0;
    t.input_bytes = 1000;
    for (int p = 0; p < partitions; ++p) {
      const std::uint64_t b = static_cast<std::uint64_t>((i + p) % 7) * 100;
      t.partition_bytes.push_back(b);
      col[static_cast<std::size_t>(p)] += b;
    }
    js.map_tasks.push_back(std::move(t));
  }
  for (int p = 0; p < partitions; ++p) {
    obs::TaskSample t;
    t.index = p;
    t.node = p % nodes;
    t.sim_seconds = 0.5;
    t.shuffle_bytes_prescale = col[static_cast<std::size_t>(p)];
    js.reduce_tasks.push_back(std::move(t));
  }
  q.jobs.push_back(std::move(js));
  q.waves.push_back({0, 15});  // the executor's record of wave 0
  return q;
}

TEST(ClusterView, PaperScaleClusterSparsifiesAndStaysSmall) {
  // 747 nodes (the Facebook preset): the dense grid would be 747x747
  // cells per record; the view must switch to top-k sparse while keeping
  // the exact row/column marginals.
  const obs::QueryTaskSamples q = synthetic_query(747, 400, 32);
  const obs::ClusterReport rep = obs::build_cluster_view(q);
  EXPECT_EQ(rep.worker_nodes, 747);
  EXPECT_TRUE(rep.traffic.sparse);
  EXPECT_TRUE(rep.traffic.dense.empty());
  EXPECT_LE(rep.traffic.top_cells.size(), 64u);
  ASSERT_EQ(rep.traffic.row_bytes.size(), 747u);
  ASSERT_EQ(rep.traffic.col_bytes.size(), 747u);
  std::uint64_t rows = 0, cols = 0;
  for (std::uint64_t b : rep.traffic.row_bytes) rows += b;
  for (std::uint64_t b : rep.traffic.col_bytes) cols += b;
  EXPECT_EQ(rows, rep.traffic.total_bytes);
  EXPECT_EQ(cols, rep.traffic.total_bytes);
  // Top cells are sorted by bytes descending, deterministically.
  for (std::size_t i = 1; i < rep.traffic.top_cells.size(); ++i)
    EXPECT_GE(rep.traffic.top_cells[i - 1].bytes,
              rep.traffic.top_cells[i].bytes);
  // The full JSON stays bounded: 256-node cap with the truncation flag
  // set, no 747x747 grid.
  const std::string json = rep.json();
  EXPECT_NE(json.find("\"nodes_truncated\":true"), std::string::npos);
  EXPECT_LT(json.size(), 200u * 1024u) << "report size must stay bounded";
}

TEST(ClusterView, DoctorFlagsUnderfilledWavesAndStragglers) {
  // 8 nodes, 8 map slots, but only 3 map tasks: underfilled. One task is
  // 10x the others: its node is a straggler.
  obs::QueryTaskSamples q = synthetic_query(8, 3, 4);
  q.jobs[0].map_tasks[1].sim_seconds = 50.0;
  const obs::ClusterReport rep = obs::build_cluster_view(q);
  EXPECT_TRUE(rep.jobs[0].map_underfilled);
  EXPECT_TRUE(rep.jobs[0].reduce_underfilled);  // 4 partitions < 8 slots
  EXPECT_EQ(rep.underfilled_phases, 2);
  const std::string text = rep.text();
  EXPECT_NE(text.find("== cluster doctor =="), std::string::npos);
  EXPECT_NE(text.find("underfilled"), std::string::npos);
  bool straggler = false, imbalance = false;
  for (const auto& d : rep.diagnosis) {
    if (d.find("straggler") != std::string::npos) straggler = true;
    if (d.find("imbalance") != std::string::npos) imbalance = true;
  }
  EXPECT_TRUE(straggler || imbalance)
      << "a 10x node must be diagnosed: " << text;
}

TEST(ClusterView, EmptySamplesProduceAnEmptyReport) {
  const obs::ClusterReport rep = obs::build_cluster_view({});
  EXPECT_EQ(rep.worker_nodes, 0);
  EXPECT_TRUE(rep.timeline.empty());
  EXPECT_NE(rep.text().find("no samples"), std::string::npos);
}

}  // namespace
}  // namespace ysmart
