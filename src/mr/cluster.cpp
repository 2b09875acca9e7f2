#include "mr/cluster.h"

#include <algorithm>

namespace ysmart {

std::uint64_t ClusterConfig::scaled_block_bytes() const {
  const double b = static_cast<double>(hdfs_block_bytes) / std::max(1.0, sim_scale);
  return std::max<std::uint64_t>(1024, static_cast<std::uint64_t>(b));
}

ClusterConfig ClusterConfig::small_local(double sim_scale) {
  ClusterConfig c;
  c.name = "small-local-2node";
  c.worker_nodes = 1;  // one TaskTracker; the second node runs the JobTracker
  c.map_slots_per_node = 4;
  c.reduce_slots_per_node = 4;
  c.replication = 1;
  c.sim_scale = sim_scale;
  c.disk_read_mb_per_s = 90;
  c.disk_write_mb_per_s = 70;
  c.network_mb_per_s = 110;  // Gigabit Ethernet
  c.task_startup_s = 1;
  return c;
}

ClusterConfig ClusterConfig::ec2(int worker_nodes, double sim_scale) {
  ClusterConfig c;
  c.name = "ec2-" + std::to_string(worker_nodes) + "node";
  c.worker_nodes = worker_nodes;
  c.map_slots_per_node = 1;  // 1 EC2 compute unit (1 virtual core)
  c.reduce_slots_per_node = 1;
  c.replication = 3;
  c.sim_scale = sim_scale;
  c.disk_read_mb_per_s = 50;  // small-instance instance storage
  c.disk_write_mb_per_s = 40;
  c.network_mb_per_s = 40;    // shared virtualized network
  c.map_cpu_us_per_record = 2.0;  // 1 weak virtual core
  c.reduce_cpu_us_per_record = 2.4;
  c.sort_mb_per_s = 80;
  c.compression.compress_mb_per_s = 5;  // slow cores make the codec costly
  c.compression.decompress_mb_per_s = 12;
  c.task_startup_s = 1.5;
  return c;
}

ClusterConfig ClusterConfig::facebook(double sim_scale, std::uint64_t seed) {
  ClusterConfig c;
  c.name = "facebook-747node";
  c.worker_nodes = 747;
  c.map_slots_per_node = 8;
  c.reduce_slots_per_node = 6;
  c.replication = 3;
  c.sim_scale = sim_scale;
  // Per-task bandwidth: a task streams from one of the node's 12 disks,
  // shared with the 7 other slots; co-running jobs take their share too.
  c.disk_read_mb_per_s = 70;
  c.disk_write_mb_per_s = 50;
  c.network_mb_per_s = 60;  // production network is busy
  c.map_cpu_us_per_record = 2.0;  // full-width production rows
  c.reduce_cpu_us_per_record = 2.4;
  c.task_startup_s = 1;
  c.contention.enabled = true;
  c.contention.mean_sched_delay_s = 90;
  c.contention.min_slot_share = 0.15;
  c.contention.max_slot_share = 0.5;
  c.contention.seed = seed;
  return c;
}

}  // namespace ysmart
