#include "stats/stats.h"

#include <limits>
#include <unordered_set>

#include "common/strings.h"

namespace ysmart {

void StatsCatalog::put(const std::string& table, TableStats stats) {
  tables_[to_lower(table)] = std::move(stats);
}

bool StatsCatalog::has(const std::string& table) const {
  return tables_.count(to_lower(table)) > 0;
}

const TableStats* StatsCatalog::find(const std::string& table) const {
  auto it = tables_.find(to_lower(table));
  return it == tables_.end() ? nullptr : &it->second;
}

std::optional<std::uint64_t> StatsCatalog::ndv(const ColumnId& id) const {
  const TableStats* t = find(id.table);
  if (!t) return std::nullopt;
  auto it = t->column_ndv.find(to_lower(id.column));
  if (it == t->column_ndv.end()) return std::nullopt;
  return it->second;
}

std::uint64_t StatsCatalog::estimate_groups(const PartitionKey& pk) const {
  constexpr std::uint64_t kUnbounded =
      std::numeric_limits<std::uint64_t>::max();
  std::uint64_t groups = 1;
  for (const auto& part : pk.parts) {
    // Smallest NDV across the alias class: a join key has at most as many
    // distinct values as its most selective side.
    std::uint64_t part_ndv = kUnbounded;
    for (const auto& id : part) {
      if (auto n = ndv(id)) part_ndv = std::min(part_ndv, *n);
    }
    if (part_ndv == kUnbounded) return kUnbounded;  // computed/unknown
    if (part_ndv == 0) part_ndv = 1;
    if (groups > kUnbounded / part_ndv) return kUnbounded;  // saturate
    groups *= part_ndv;
  }
  return groups;
}

TableStats StatsCatalog::estimate(const Table& t, std::size_t sample_rows) {
  TableStats stats;
  stats.rows = t.row_count();
  const std::size_t n = std::min(sample_rows, t.row_count());
  stats.sampled = n < t.row_count();  // NDVs below may underestimate
  std::vector<std::unordered_set<std::size_t>> hashes(t.schema().size());
  for (std::size_t c = 0; c < hashes.size(); ++c) {
    const TableColumn& col = t.column(c);
    for (std::size_t i = 0; i < n; ++i)
      if (!col.is_null(i)) hashes[c].insert(col.value_at(i).hash());
  }
  for (std::size_t c = 0; c < t.schema().size(); ++c) {
    // Extrapolate linearly when sampled; exact when the full table fit.
    std::uint64_t ndv = hashes[c].size();
    if (n < t.row_count() && n > 0) {
      const double ratio = static_cast<double>(hashes[c].size()) /
                           static_cast<double>(n);
      // A column saturating its sample is likely near-unique overall.
      if (ratio > 0.95)
        ndv = static_cast<std::uint64_t>(ratio *
                                         static_cast<double>(t.row_count()));
    }
    stats.column_ndv[t.schema().at(c).name] = ndv;
  }
  return stats;
}

}  // namespace ysmart
