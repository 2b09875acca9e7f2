// ClusterConfig: the simulated cluster the MapReduce engine "runs on".
//
// The engine executes jobs for real over scaled-down data; the cluster
// config supplies (a) the structural parameters (nodes, slots, replication,
// block size) that shape task counts and waves, (b) the bandwidth/CPU
// parameters that convert measured bytes and records into simulated
// seconds, and (c) `sim_scale`, the factor by which the in-memory data set
// stands in for the paper's full-size data set (e.g. 100 MB generated data
// with sim_scale=100 models the paper's 10 GB TPC-H run: block size and
// all byte/record costs are scaled consistently, so task counts and phase
// times come out in the paper's regime).
//
// Presets mirror the paper's four test environments (Section VII-B).
#pragma once

#include <cstdint>
#include <string>

namespace ysmart {

struct CompressionConfig {
  bool enabled = false;
  double ratio = 0.35;            // wire bytes = raw bytes * ratio
  double compress_mb_per_s = 30;  // CPU throughput of codec, per task
  double decompress_mb_per_s = 60;
};

struct ContentionConfig {
  bool enabled = false;
  /// Mean of the exponential per-job submission/scheduling delay. The
  /// paper observed gaps up to 5.4 minutes between jobs on the Facebook
  /// production cluster (Section VII-F).
  double mean_sched_delay_s = 60;
  /// Fraction of the cluster's slots effectively available to this query
  /// (co-running workloads occupy the rest); drawn uniformly from
  /// [min_slot_share, max_slot_share] per job.
  double min_slot_share = 0.2;
  double max_slot_share = 0.6;
  std::uint64_t seed = 42;
};

struct ClusterConfig {
  std::string name;

  int worker_nodes = 1;
  int map_slots_per_node = 2;
  int reduce_slots_per_node = 2;
  int replication = 3;

  /// Simulated-full-size bytes represented by each in-memory byte.
  double sim_scale = 1.0;

  /// Full-size HDFS block bytes (the DFS divides by sim_scale).
  std::uint64_t hdfs_block_bytes = 64ull << 20;

  // Per-node hardware model.
  double disk_read_mb_per_s = 80;
  double disk_write_mb_per_s = 60;
  double network_mb_per_s = 100;  // per-node NIC bandwidth

  // CPU cost, in microseconds per (full-size) record, of running a map or
  // reduce function body; covers parsing, projection, hash updates.
  double map_cpu_us_per_record = 1.0;
  double reduce_cpu_us_per_record = 1.2;

  /// Extra CPU per map-output byte for the sort/spill pipeline, expressed
  /// as a throughput.
  double sort_mb_per_s = 150;

  double task_startup_s = 1;  // JVM-ish per-task launch cost

  /// Local disk capacity per node for intermediate (map output) data;
  /// exceeding worker_nodes * this fails the job (how Pig dies on Q-CSA).
  std::uint64_t local_disk_capacity_bytes = 500ull << 30;

  /// Probability that an individual task attempt fails and is re-executed
  /// (Hadoop's fault tolerance — the very reason map output must be
  /// materialized, Section III). Failed attempts add their time to the
  /// schedule; results are unaffected because the retry recomputes the
  /// same deterministic output. Seeded by contention.seed.
  double task_failure_rate = 0.0;

  CompressionConfig compression;
  ContentionConfig contention;

  int total_map_slots() const { return worker_nodes * map_slots_per_node; }
  int total_reduce_slots() const { return worker_nodes * reduce_slots_per_node; }

  /// In-memory block bytes used by the DFS for this cluster.
  std::uint64_t scaled_block_bytes() const;

  // ---- presets (Section VII-B) ----

  /// 1 TaskTracker node with 4 slots, Gigabit Ethernet, Hadoop 0.19.2,
  /// replication 1 (single data node). Used with 10 GB TPC-H / 20 GB
  /// clicks via sim_scale.
  static ClusterConfig small_local(double sim_scale);

  /// Amazon EC2 small instances: 1 virtual core, 1 map + 1 reduce slot,
  /// modest shared disk and network.
  static ClusterConfig ec2(int worker_nodes, double sim_scale);

  /// Facebook production cluster: 747 nodes, 8 cores, 12 disks; contention
  /// from co-running jobs enabled.
  static ClusterConfig facebook(double sim_scale, std::uint64_t seed);
};

}  // namespace ysmart
