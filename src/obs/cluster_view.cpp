#include "obs/cluster_view.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <queue>
#include <set>
#include <utility>

#include "common/json.h"
#include "common/strings.h"

namespace ysmart::obs {

namespace {

/// Node count above which the traffic matrix is reported as top-k sparse
/// cells instead of a dense grid.
constexpr int kDenseMatrixMaxNodes = 64;
/// Cells retained in sparse mode (by bytes desc, then from/to asc).
constexpr std::size_t kTopCells = 64;
/// A node is a straggler when its busy seconds exceed this multiple of
/// the median node's (>= 2 nodes, median > 0).
constexpr double kNodeStragglerThreshold = 2.0;
/// Busy-seconds CV at or above this flags node load imbalance.
constexpr double kImbalanceCvThreshold = 0.5;
/// Share of all remote block reads on one node that flags concentrated
/// locality misses.
constexpr double kLocalityConcentrationShare = 0.5;

/// Replay CostModel::makespan's greedy LPT fold over one phase and
/// record which (slot -> lane) each task landed on. The fold runs
/// relative to the phase start with identical ordering (seconds
/// descending) and identical arithmetic (start = earliest slot end), so
/// the returned relative makespan reproduces the phase's modeled time
/// bit-for-bit when the phase was not expansion-scaled; event start
/// times add phase_start once, for display on the query timeline.
double replay_phase(const std::vector<TaskSample>& tasks, int slots,
                    int nodes, double phase_start, int job_idx, bool reduce,
                    std::vector<SlotEvent>& out) {
  if (tasks.empty()) return 0;
  slots = std::max(1, slots);
  nodes = std::max(1, nodes);
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (tasks[a].sim_seconds != tasks[b].sim_seconds)
      return tasks[a].sim_seconds > tasks[b].sim_seconds;
    return a < b;  // deterministic tie-break; makespan is value-only
  });
  // Min-heap of (slot end time, slot index); equal ends pop the lowest
  // slot first, matching the initial fill order.
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>,
                      std::greater<>> heap;
  for (int s = 0; s < slots; ++s) heap.emplace(0.0, s);
  double makespan = 0;
  for (std::size_t idx : order) {
    auto [free_at, slot] = heap.top();
    heap.pop();
    SlotEvent ev;
    ev.job = job_idx;
    ev.reduce = reduce;
    ev.task = tasks[idx].index;
    ev.node = slot % nodes;
    ev.slot = slot / nodes;
    ev.start_s = phase_start + free_at;
    ev.dur_s = tasks[idx].sim_seconds;
    out.push_back(ev);
    const double end = free_at + tasks[idx].sim_seconds;
    makespan = std::max(makespan, end);
    heap.emplace(end, slot);
  }
  return makespan;
}

std::string fmt_mb(std::uint64_t bytes) {
  return strf("%.1f MB", static_cast<double>(bytes) / 1048576.0);
}

void node_json(JsonWriter& w, const NodeStats& n) {
  w.begin_object();
  w.kv("node", n.node);
  w.kv("map_tasks", n.map_tasks);
  w.kv("reduce_partitions", n.reduce_partitions);
  w.kv("busy_map_s", n.busy_map_s);
  w.kv("busy_reduce_s", n.busy_reduce_s);
  w.kv("busy_s", n.busy_s);
  w.kv("utilization", n.utilization);
  w.kv("local_reads", n.local_reads);
  w.kv("remote_reads", n.remote_reads);
  w.kv("remote_read_bytes", n.remote_read_bytes);
  w.kv("shuffle_bytes_out", n.shuffle_bytes_out);
  w.kv("shuffle_bytes_in", n.shuffle_bytes_in);
  w.end_object();
}

/// Busiest-first node order for truncated listings: busy seconds
/// descending, node index ascending (deterministic).
std::vector<const NodeStats*> busiest(const std::vector<NodeStats>& nodes,
                                      std::size_t k) {
  std::vector<const NodeStats*> by_busy;
  by_busy.reserve(nodes.size());
  for (const auto& n : nodes) by_busy.push_back(&n);
  std::sort(by_busy.begin(), by_busy.end(),
            [](const NodeStats* a, const NodeStats* b) {
              if (a->busy_s != b->busy_s) return a->busy_s > b->busy_s;
              return a->node < b->node;
            });
  if (by_busy.size() > k) by_busy.resize(k);
  return by_busy;
}

}  // namespace

ClusterReport build_cluster_view(const QueryTaskSamples& query) {
  ClusterReport rep;
  if (query.jobs.empty()) return rep;

  // Cluster width: the jobs all ran on one engine/config, but synthetic
  // sample sets may disagree — take the max, and never less than any
  // observed node id so the rollup vectors cover every sample.
  int nodes = 1;
  for (const auto& js : query.jobs) {
    nodes = std::max(nodes, js.worker_nodes);
    for (const auto& t : js.map_tasks) nodes = std::max(nodes, t.node + 1);
    for (const auto& t : js.reduce_tasks) nodes = std::max(nodes, t.node + 1);
  }
  rep.worker_nodes = nodes;
  rep.nodes.resize(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n)
    rep.nodes[static_cast<std::size_t>(n)].node = n;

  // ---- job start offsets and the query makespan ----
  // Running sums of the executor's recorded wave times, in wave order:
  // the makespan is exactly the executor's wall_time_s.
  std::vector<double> job_start(query.jobs.size(), 0.0);
  for (const QueryWave& w : query_waves(query)) {
    for (std::size_t j = w.first; j < w.end; ++j) job_start[j] = w.start_s;
    rep.makespan_s = w.start_s + w.elapsed_s;
  }

  // ---- per-node rollups, traffic matrix, timeline ----
  std::map<std::pair<int, int>, std::uint64_t> cells;
  rep.traffic.nodes = nodes;
  rep.traffic.row_bytes.assign(static_cast<std::size_t>(nodes), 0);
  rep.traffic.col_bytes.assign(static_cast<std::size_t>(nodes), 0);
  for (std::size_t ji = 0; ji < query.jobs.size(); ++ji) {
    const JobTaskSamples& js = query.jobs[ji];
    ClusterJobInfo info;
    info.name = js.job_name;
    info.wave = js.wave;
    info.map_only = js.map_only;
    info.start_s = job_start[ji];
    info.map_slots = js.map_slots;
    info.reduce_slots = js.reduce_slots;
    info.map_underfilled =
        !js.map_tasks.empty() &&
        js.map_tasks.size() < static_cast<std::size_t>(js.map_slots);
    info.reduce_underfilled =
        !js.map_only && js.target_reduce_tasks > 0 &&
        js.target_reduce_tasks < static_cast<std::uint64_t>(js.reduce_slots);
    rep.underfilled_phases +=
        (info.map_underfilled ? 1 : 0) + (info.reduce_underfilled ? 1 : 0);

    for (const auto& t : js.map_tasks) {
      NodeStats& n = rep.nodes[static_cast<std::size_t>(t.node)];
      ++n.map_tasks;
      n.busy_map_s += t.sim_seconds;
      if (t.local_read) {
        ++n.local_reads;
      } else {
        ++n.remote_reads;
        n.remote_read_bytes += t.input_bytes;
      }
      for (std::size_t p = 0; p < t.partition_bytes.size(); ++p) {
        const std::uint64_t b = t.partition_bytes[p];
        if (b == 0) continue;
        // Partition p's node by the placement convention; the recorded
        // reduce sample carries the same value.
        const int to = static_cast<int>(p) % nodes;
        cells[{t.node, to}] += b;
        rep.traffic.row_bytes[static_cast<std::size_t>(t.node)] += b;
        rep.traffic.col_bytes[static_cast<std::size_t>(to)] += b;
        rep.traffic.total_bytes += b;
        if (t.node == to) rep.traffic.local_bytes += b;
      }
    }
    for (const auto& t : js.reduce_tasks) {
      NodeStats& n = rep.nodes[static_cast<std::size_t>(t.node)];
      ++n.reduce_partitions;
      n.busy_reduce_s += t.sim_seconds;
    }

    const double map_start = job_start[ji] + js.sched_delay_s;
    info.map_replay_s =
        replay_phase(js.map_tasks, js.map_slots, nodes, map_start,
                     static_cast<int>(ji), /*reduce=*/false, rep.timeline);
    if (!js.map_only)
      info.reduce_replay_s = replay_phase(
          js.reduce_tasks, js.reduce_slots, nodes, map_start + js.map_time_s,
          static_cast<int>(ji), /*reduce=*/true, rep.timeline);
    rep.jobs.push_back(std::move(info));
  }

  for (auto& n : rep.nodes) {
    n.busy_s = n.busy_map_s + n.busy_reduce_s;
    n.utilization = rep.makespan_s > 0 ? n.busy_s / rep.makespan_s : 0.0;
    n.shuffle_bytes_out = rep.traffic.row_bytes[static_cast<std::size_t>(n.node)];
    n.shuffle_bytes_in = rep.traffic.col_bytes[static_cast<std::size_t>(n.node)];
    rep.busy_total_s += n.busy_s;
  }

  // Utilization CV: population stddev / mean of per-node busy seconds
  // (idle nodes count — an idle node IS the imbalance).
  const double mean = rep.busy_total_s / static_cast<double>(nodes);
  if (mean > 0) {
    double var = 0;
    for (const auto& n : rep.nodes)
      var += (n.busy_s - mean) * (n.busy_s - mean);
    var /= static_cast<double>(nodes);
    rep.utilization_cv = std::sqrt(var) / mean;
  }

  // ---- dense or top-k sparse matrix materialization ----
  rep.traffic.sparse = nodes > kDenseMatrixMaxNodes;
  if (!rep.traffic.sparse) {
    rep.traffic.dense.assign(
        static_cast<std::size_t>(nodes),
        std::vector<std::uint64_t>(static_cast<std::size_t>(nodes), 0));
    for (const auto& [key, b] : cells)
      rep.traffic.dense[static_cast<std::size_t>(key.first)]
                       [static_cast<std::size_t>(key.second)] = b;
  } else {
    std::vector<TrafficCell> all;
    all.reserve(cells.size());
    for (const auto& [key, b] : cells)
      all.push_back({key.first, key.second, b});
    std::sort(all.begin(), all.end(), [](const TrafficCell& a,
                                         const TrafficCell& b) {
      if (a.bytes != b.bytes) return a.bytes > b.bytes;
      if (a.from != b.from) return a.from < b.from;
      return a.to < b.to;
    });
    if (all.size() > kTopCells) all.resize(kTopCells);
    rep.traffic.top_cells = std::move(all);
  }

  // ---- cluster doctor ----
  if (nodes >= 2) {
    std::vector<double> busy;
    busy.reserve(rep.nodes.size());
    for (const auto& n : rep.nodes) busy.push_back(n.busy_s);
    std::vector<double> sorted = busy;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[(sorted.size() - 1) / 2];  // lower median
    if (median > 0) {
      int listed = 0;
      for (const auto& n : rep.nodes) {
        if (n.busy_s <= kNodeStragglerThreshold * median) continue;
        if (listed++ < 3)
          rep.diagnosis.push_back(strf(
              "node %d is a straggler: busy %.1fs, %.1fx the median node "
              "(%.1fs)",
              n.node, n.busy_s, n.busy_s / median, median));
      }
      if (listed > 3)
        rep.diagnosis.push_back(
            strf("...and %d more straggler node(s)", listed - 3));
    }
    if (rep.utilization_cv >= kImbalanceCvThreshold)
      rep.diagnosis.push_back(
          strf("node load imbalance: busy-seconds CV %.2f across %d nodes",
               rep.utilization_cv, nodes));
  }
  for (const auto& info : rep.jobs) {
    if (info.map_underfilled)
      rep.diagnosis.push_back(
          strf("job %s map: cluster underfilled (%d slots, fewer runnable "
               "tasks)",
               info.name.c_str(), info.map_slots));
    if (info.reduce_underfilled)
      rep.diagnosis.push_back(
          strf("job %s reduce: cluster underfilled (%d slots, fewer modeled "
               "tasks)",
               info.name.c_str(), info.reduce_slots));
  }
  {
    std::uint64_t remote_total = 0;
    const NodeStats* top = nullptr;
    for (const auto& n : rep.nodes) {
      remote_total += n.remote_reads;
      if (!top || n.remote_reads > top->remote_reads) top = &n;
    }
    if (nodes >= 2 && top && remote_total > 0 &&
        static_cast<double>(top->remote_reads) >=
            kLocalityConcentrationShare *
                static_cast<double>(remote_total))
      rep.diagnosis.push_back(strf(
          "locality misses concentrate on node %d: %llu of %llu remote "
          "block reads",
          top->node, static_cast<unsigned long long>(top->remote_reads),
          static_cast<unsigned long long>(remote_total)));
  }
  if (rep.diagnosis.empty())
    rep.diagnosis.push_back(
        "cluster looks healthy: no node stragglers, load imbalance or "
        "concentrated locality misses");
  return rep;
}

std::string ClusterReport::text() const {
  std::string out = "== cluster doctor ==\n";
  if (worker_nodes == 0) {
    out += "no samples: run with observability attached\n";
    return out;
  }
  const double avg_util =
      makespan_s > 0
          ? busy_total_s / (makespan_s * static_cast<double>(worker_nodes))
          : 0.0;
  out += strf("cluster: %d node(s), makespan %.1fs, busy %.1fs "
              "(avg node utilization %.2f, busy cv %.2f)\n",
              worker_nodes, makespan_s, busy_total_s, avg_util,
              utilization_cv);
  const double local_share =
      traffic.total_bytes > 0
          ? static_cast<double>(traffic.local_bytes) /
                static_cast<double>(traffic.total_bytes)
          : 0.0;
  out += strf("shuffle traffic: %s total, %.0f%% node-local; matrix %dx%d "
              "(%s)\n",
              fmt_mb(traffic.total_bytes).c_str(), 100.0 * local_share,
              traffic.nodes, traffic.nodes,
              traffic.sparse
                  ? strf("top-%zu sparse", traffic.top_cells.size()).c_str()
                  : "dense");
  out += strf("underfilled phases: %d\n", underfilled_phases);
  const auto top = busiest(nodes, 8);
  out += strf("busiest nodes (%zu of %d):\n", top.size(), worker_nodes);
  for (const NodeStats* n : top)
    out += strf("  node %-4d busy %8.1fs (util %.2f)  maps %llu  reduce "
                "parts %llu  reads %llu local/%llu remote  shuffle in %s "
                "out %s\n",
                n->node, n->busy_s, n->utilization,
                static_cast<unsigned long long>(n->map_tasks),
                static_cast<unsigned long long>(n->reduce_partitions),
                static_cast<unsigned long long>(n->local_reads),
                static_cast<unsigned long long>(n->remote_reads),
                fmt_mb(n->shuffle_bytes_in).c_str(),
                fmt_mb(n->shuffle_bytes_out).c_str());
  out += "cluster diagnosis:\n";
  for (const auto& d : diagnosis) out += "  - " + d + "\n";
  return out;
}

void ClusterReport::to_json(JsonWriter& w, bool full) const {
  w.begin_object();
  w.kv("worker_nodes", worker_nodes);
  w.kv("makespan_s", makespan_s);
  w.kv("busy_total_s", busy_total_s);
  w.kv("utilization_cv", utilization_cv);
  w.kv("underfilled_phases", underfilled_phases);
  const std::size_t node_cap = full ? 256 : 8;
  const bool truncated = nodes.size() > node_cap;
  w.kv("nodes_truncated", truncated);
  w.key("nodes").begin_array();
  if (!truncated) {
    for (const auto& n : nodes) node_json(w, n);
  } else {
    for (const NodeStats* n : busiest(nodes, node_cap)) node_json(w, *n);
  }
  w.end_array();
  if (full) {
    w.key("jobs").begin_array();
    for (const auto& info : jobs) {
      w.begin_object();
      w.kv("name", std::string_view(info.name));
      w.kv("wave", info.wave);
      w.kv("map_only", info.map_only);
      w.kv("start_s", info.start_s);
      w.kv("map_slots", info.map_slots);
      w.kv("reduce_slots", info.reduce_slots);
      w.kv("map_underfilled", info.map_underfilled);
      w.kv("reduce_underfilled", info.reduce_underfilled);
      w.end_object();
    }
    w.end_array();
    w.key("traffic").begin_object();
    w.kv("nodes", traffic.nodes);
    w.kv("sparse", traffic.sparse);
    w.kv("total_bytes", traffic.total_bytes);
    w.kv("local_bytes", traffic.local_bytes);
    w.key("row_bytes").begin_array();
    for (std::uint64_t b : traffic.row_bytes) w.value(b);
    w.end_array();
    w.key("col_bytes").begin_array();
    for (std::uint64_t b : traffic.col_bytes) w.value(b);
    w.end_array();
    if (!traffic.sparse) {
      w.key("dense").begin_array();
      for (const auto& row : traffic.dense) {
        w.begin_array();
        for (std::uint64_t b : row) w.value(b);
        w.end_array();
      }
      w.end_array();
    } else {
      w.key("top_cells").begin_array();
      for (const auto& c : traffic.top_cells) {
        w.begin_object();
        w.kv("from", c.from);
        w.kv("to", c.to);
        w.kv("bytes", c.bytes);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
    const std::size_t ev_cap = 4096;
    w.kv("timeline_truncated", timeline.size() > ev_cap);
    w.key("timeline").begin_array();
    for (std::size_t i = 0; i < std::min(timeline.size(), ev_cap); ++i) {
      const SlotEvent& ev = timeline[i];
      w.begin_object();
      w.kv("job", std::string_view(
                      jobs[static_cast<std::size_t>(ev.job)].name));
      w.kv("phase", ev.reduce ? "reduce" : "map");
      w.kv("task", ev.task);
      w.kv("node", ev.node);
      w.kv("slot", ev.slot);
      w.kv("start_s", ev.start_s);
      w.kv("dur_s", ev.dur_s);
      w.end_object();
    }
    w.end_array();
  }
  w.key("diagnosis").begin_array();
  for (const auto& d : diagnosis) w.value(std::string_view(d));
  w.end_array();
  w.end_object();
}

std::string ClusterReport::json(bool full) const {
  JsonWriter w;
  to_json(w, full);
  return w.take();
}

std::vector<std::string> ClusterReport::chrome_events(
    double sim_offset_s) const {
  std::vector<std::string> out;
  if (timeline.empty()) return out;
  // Lane tid: grouped by node, then slot within the node. +1 keeps tid
  // 0 free (some viewers treat it specially).
  auto lane_tid = [](int node, int slot) { return node * 4096 + slot + 1; };
  {
    JsonWriter w;
    w.begin_object();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", 3);
    w.key("args").begin_object().kv("name", "cluster nodes").end_object();
    w.end_object();
    out.push_back(w.take());
  }
  std::set<std::pair<int, int>> lanes;
  for (const auto& ev : timeline) lanes.insert({ev.node, ev.slot});
  for (const auto& [node, slot] : lanes) {
    JsonWriter w;
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("pid", 3);
    w.kv("tid", lane_tid(node, slot));
    w.key("args")
        .begin_object()
        .kv("name", std::string_view(strf("node %d slot %d", node, slot)))
        .end_object();
    w.end_object();
    out.push_back(w.take());
  }
  for (const auto& ev : timeline) {
    JsonWriter w;
    w.begin_object();
    w.kv("name",
         std::string_view(strf(
             "%s %s#%d", jobs[static_cast<std::size_t>(ev.job)].name.c_str(),
             ev.reduce ? "reduce" : "map", ev.task)));
    w.kv("cat", "cluster");
    w.kv("ph", "X");
    w.kv("pid", 3);
    w.kv("tid", lane_tid(ev.node, ev.slot));
    w.kv("ts", (sim_offset_s + ev.start_s) * 1e6);
    w.kv("dur", ev.dur_s * 1e6);
    w.end_object();
    out.push_back(w.take());
  }
  return out;
}

}  // namespace ysmart::obs
