// The cluster axis: per-node rollups, a slot-occupancy timeline and the
// map-node -> reduce-node shuffle traffic matrix of one executed query.
//
// Like the analyzer (obs/analyzer.h), everything here is a pure function
// of a QueryTaskSamples snapshot: building a view cannot perturb the
// engine, and the output is deterministic for a fixed seed — two runs
// (at any thread-pool size, observability on or off elsewhere) render
// byte-identical JSON (pinned by test_robustness).
//
// Node-identity conventions (also in task_samples.h and DESIGN.md
// "The cluster axis"):
//  * A map task runs on node task_index % worker_nodes — the engine's
//    round-robin TaskTracker assignment, the same value its locality
//    check uses (TaskSample::node records it).
//  * A reduce *partition* p runs on node p % worker_nodes. Assignment is
//    per simulated partition (at most Engine::kMaxSimReducers), so on
//    clusters with more nodes than partitions the reduce work
//    concentrates on the first partitions' nodes — an artifact of the
//    partition cap, documented like metrics.h's map-only rule.
//
// The traffic matrix is exact: cell (i, j) sums the map tasks'
// per-partition wire byte counts (TaskSample::partition_bytes,
// pre-expansion uint64 arithmetic), so every row sum equals that map
// node's emitted shuffle bytes and every column sum equals the receiving
// partitions' shuffle_bytes_prescale — to the byte, in any summation
// order. Above 64 nodes only the top 64 cells are materialized (the
// 747-node Facebook preset would otherwise carry a 747x747 grid per
// record); the full row/column sum vectors are kept in both modes, so
// the exactness invariant survives sparsification.
//
// The slot timeline replays CostModel::makespan's greedy LPT fold
// (tasks by descending simulated seconds onto the earliest-free slot)
// per phase, then labels slot s as lane (node = s % worker_nodes,
// slot = s / worker_nodes). The engine's slot model is cluster-global,
// so a map task's *lane* node can differ from its data-locality node;
// the per-node busy rollups use the locality node, the timeline shows
// where the schedule put the work. A phase whose modeled task count
// exceeds the simulated partitions (reduce expansion) is replayed over
// the simulated partitions only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/task_samples.h"

namespace ysmart {
class JsonWriter;
}

namespace ysmart::obs {

/// Per-node rollup across every job of the query.
struct NodeStats {
  int node = 0;
  std::uint64_t map_tasks = 0;
  std::uint64_t reduce_partitions = 0;
  double busy_map_s = 0;
  double busy_reduce_s = 0;
  double busy_s = 0;  // busy_map_s + busy_reduce_s
  /// busy_s / makespan_s. Can exceed 1.0: a node runs several slots.
  double utilization = 0;
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t remote_read_bytes = 0;
  std::uint64_t shuffle_bytes_out = 0;  // traffic-matrix row sum
  std::uint64_t shuffle_bytes_in = 0;   // traffic-matrix column sum
};

struct TrafficCell {
  int from = 0;
  int to = 0;
  std::uint64_t bytes = 0;
};

struct TrafficMatrix {
  int nodes = 0;
  bool sparse = false;
  std::uint64_t total_bytes = 0;
  std::uint64_t local_bytes = 0;  // diagonal: map node == reduce node
  /// Exact per-node sums, present in both dense and sparse modes.
  std::vector<std::uint64_t> row_bytes;  // bytes leaving each map node
  std::vector<std::uint64_t> col_bytes;  // bytes entering each reduce node
  std::vector<std::vector<std::uint64_t>> dense;  // empty when sparse
  std::vector<TrafficCell> top_cells;             // filled when sparse
};

/// One task occupying a (node, slot) lane on the simulated timeline.
struct SlotEvent {
  int job = 0;  // index into ClusterReport::jobs
  bool reduce = false;
  int task = 0;  // map task index or simulated partition index
  int node = 0;  // lane node: slot % worker_nodes
  int slot = 0;  // lane within the node: slot / worker_nodes
  double start_s = 0;  // on the query's simulated timeline
  double dur_s = 0;
};

/// Per-job context the timeline and underfilled-wave check need.
struct ClusterJobInfo {
  std::string name;
  int wave = 0;
  bool map_only = false;
  double start_s = 0;  // wave start on the query sim timeline
  int map_slots = 1;
  int reduce_slots = 1;
  bool map_underfilled = false;     // runnable map tasks < map slots
  bool reduce_underfilled = false;  // modeled reduce tasks < reduce slots
  /// Relative phase makespans from the timeline's LPT replay — equal to
  /// the job's map_time_s / reduce_time_s bit-for-bit when the phase was
  /// not expansion-scaled (the exactness witness test_cluster_view pins;
  /// not exported to JSON — the phase times already are, via the bench).
  double map_replay_s = 0;
  double reduce_replay_s = 0;
};

struct ClusterReport {
  int worker_nodes = 0;
  /// The recorded wave times summed in wave order: the executor's
  /// wall_time_s exactly, and the analyzer's critical_path_s.
  double makespan_s = 0;
  double busy_total_s = 0;
  /// Population CV of per-node busy seconds (0 when mean is 0).
  double utilization_cv = 0;
  int underfilled_phases = 0;
  std::vector<ClusterJobInfo> jobs;
  std::vector<NodeStats> nodes;  // one per node, node order
  TrafficMatrix traffic;
  std::vector<SlotEvent> timeline;  // job order, phase order, LPT order
  std::vector<std::string> diagnosis;

  /// "== cluster doctor ==" indented text section.
  std::string text() const;
  /// JSON object. full=true adds the traffic matrix, slot timeline and
  /// per-job info (the --cluster document / \cluster shape); full=false
  /// is the compact form embedded under the analyzer's "cluster" key
  /// (top nodes + aggregates + diagnosis only). Deterministic key order.
  /// Report size stays bounded on paper-scale clusters: the node list
  /// truncates to the busiest 256 (full) / 8 (compact) with a
  /// nodes_truncated flag, and the timeline to 4096 events.
  void to_json(JsonWriter& w, bool full = true) const;
  std::string json(bool full = true) const;

  /// Pre-encoded Chrome trace_event objects for the per-node tracks:
  /// pid 3 ("cluster nodes") process/thread metadata plus one complete
  /// event per timeline entry, shifted by `sim_offset_s` (the query's
  /// start on a multi-query trace's simulated timeline). Feed to
  /// Tracer::chrome_json's extra_events parameter.
  std::vector<std::string> chrome_events(double sim_offset_s = 0) const;
};

/// Build the cluster view of one query's samples. Pure; safe on empty
/// or partially-filled sample sets (returns an empty report).
ClusterReport build_cluster_view(const QueryTaskSamples& query);

}  // namespace ysmart::obs
