// Dfs: the simulated distributed file system (HDFS stand-in).
//
// Files hold a Table plus a block map: the rows are partitioned into
// blocks of about block_bytes each (cut from per-row sizes computed from
// the table's columns), each a row range of every column placed on
// `replication` simulated nodes. The MapReduce engine derives one map
// task per block and uses the placement to decide whether a read is
// node-local (disk bandwidth) or remote (network bandwidth). Writes to
// the DFS cost one local write plus (replication - 1) network copies,
// which is exactly the materialization penalty YSmart's job merging
// removes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/table.h"

namespace ysmart {

struct DfsBlock {
  std::size_t first_row = 0;
  std::size_t row_count = 0;
  std::uint64_t bytes = 0;
  std::vector<int> replica_nodes;  // node ids holding a copy
};

struct DfsFile {
  std::string path;
  std::shared_ptr<const Table> table;
  std::vector<DfsBlock> blocks;
  std::uint64_t total_bytes = 0;
};

class Dfs {
 public:
  /// `num_nodes`: size of the simulated cluster (for block placement);
  /// `block_bytes`: HDFS chunk size (paper uses 64 MB; scaled down here);
  /// `replication`: copies per block.
  Dfs(int num_nodes, std::uint64_t block_bytes, int replication);

  int num_nodes() const { return num_nodes_; }
  std::uint64_t block_bytes() const { return block_bytes_; }
  int replication() const { return replication_; }

  /// Store a table under `path` (replacing any existing file). Returns the
  /// created file. Placement is deterministic (round-robin from a counter).
  const DfsFile& write(const std::string& path, std::shared_ptr<const Table> t);

  bool exists(const std::string& path) const;
  const DfsFile& file(const std::string& path) const;  // throws if absent
  void remove(const std::string& path);

  /// Total bytes currently stored (all replicas), for capacity checks.
  std::uint64_t stored_bytes() const;

  std::vector<std::string> list() const;

 private:
  int num_nodes_;
  std::uint64_t block_bytes_;
  int replication_;
  std::uint64_t placement_cursor_ = 0;
  std::map<std::string, DfsFile> files_;
};

}  // namespace ysmart
