// TPC-H subset generator (from scratch; no dbgen).
//
// Generates the tables and columns the paper's three TPC-H queries (Q17,
// Q18, Q21 in their flattened forms) touch. Deterministic under a seed.
// Dates are encoded as integer day numbers; money as doubles.
//
// Row counts follow TPC-H proportions: per "micro scale factor" unit
// there are `orders` orders with a skewed number of lineitems each (so a
// tail of large orders exists for Q18's sum(l_quantity) > 300 filter).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "storage/table.h"

namespace ysmart {

struct TpchConfig {
  std::uint64_t seed = 20110607;  // ICDCS 2011 vintage
  std::int64_t orders = 30000;
  std::int64_t parts = 4000;
  std::int64_t customers = 3000;
  std::int64_t suppliers = 200;
  std::int64_t nations = 25;
  /// Lineitems per order are 1 + a Zipf(max_lineitems_per_order, skew) draw.
  /// TPC-H orders carry 1-7 lineitems; the slightly longer skewed tail
  /// here keeps Q18's sum(l_quantity) > 300 filter selecting a rare
  /// (~0.3%) population, as it does on real TPC-H data.
  std::int64_t max_lineitems_per_order = 9;
  double lineitem_skew = 0.9;
};

struct TpchData {
  std::shared_ptr<Table> lineitem;
  std::shared_ptr<Table> orders;
  std::shared_ptr<Table> part;
  std::shared_ptr<Table> customer;
  std::shared_ptr<Table> supplier;
  std::shared_ptr<Table> nation;
};

/// Schemas (also used to register catalogs without generating data).
Schema tpch_lineitem_schema();
Schema tpch_orders_schema();
Schema tpch_part_schema();
Schema tpch_customer_schema();
Schema tpch_supplier_schema();
Schema tpch_nation_schema();

TpchData generate_tpch(const TpchConfig& cfg);

}  // namespace ysmart
