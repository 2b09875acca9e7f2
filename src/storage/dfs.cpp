#include "storage/dfs.h"

#include <algorithm>

#include "common/error.h"

namespace ysmart {

Dfs::Dfs(int num_nodes, std::uint64_t block_bytes, int replication)
    : num_nodes_(num_nodes),
      block_bytes_(block_bytes),
      replication_(std::min(replication, num_nodes)) {
  check(num_nodes >= 1, "Dfs: need at least one node");
  check(block_bytes >= 1, "Dfs: block size must be positive");
  check(replication >= 1, "Dfs: replication must be >= 1");
}

const DfsFile& Dfs::write(const std::string& path,
                          std::shared_ptr<const Table> t) {
  check(t != nullptr, "Dfs::write: null table");
  DfsFile f;
  f.path = path;
  f.table = std::move(t);

  // Cut rows into blocks of ~block_bytes_ each: a block closes at the
  // first row that brings it to block_bytes_, or at the last row.
  const Table& table = *f.table;
  const std::size_t n = table.row_count();
  for (std::size_t first = 0; first < n;) {
    std::size_t end = first;
    std::uint64_t acc = 0;
    do acc += table.row_byte_size(end++);
    while (end < n && acc < block_bytes_);
    DfsBlock b;
    b.first_row = first;
    b.row_count = end - first;
    b.bytes = acc;
    for (int r = 0; r < replication_; ++r)
      b.replica_nodes.push_back(
          static_cast<int>((placement_cursor_ + r) % num_nodes_));
    ++placement_cursor_;
    f.total_bytes += acc;
    f.blocks.push_back(std::move(b));
    first = end;
  }
  if (n == 0) {
    // Keep an explicit empty block so downstream jobs still get one task
    // (mirrors Hadoop launching a task for an empty split).
    DfsBlock b;
    b.replica_nodes.push_back(static_cast<int>(placement_cursor_++ % num_nodes_));
    f.blocks.push_back(std::move(b));
  }
  auto [it, _] = files_.insert_or_assign(path, std::move(f));
  return it->second;
}

bool Dfs::exists(const std::string& path) const { return files_.count(path) > 0; }

const DfsFile& Dfs::file(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) throw ExecError("DFS file not found: " + path);
  return it->second;
}

void Dfs::remove(const std::string& path) { files_.erase(path); }

std::uint64_t Dfs::stored_bytes() const {
  std::uint64_t n = 0;
  for (const auto& [_, f] : files_)
    n += f.total_bytes * static_cast<std::uint64_t>(replication_);
  return n;
}

std::vector<std::string> Dfs::list() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : files_) out.push_back(k);
  return out;
}

}  // namespace ysmart
