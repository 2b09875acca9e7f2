#include "data/tpch_gen.h"

#include "common/rng.h"
#include "common/strings.h"

namespace ysmart {

Schema tpch_lineitem_schema() {
  Schema s;
  s.add("l_orderkey", ValueType::Int);
  s.add("l_partkey", ValueType::Int);
  s.add("l_suppkey", ValueType::Int);
  s.add("l_quantity", ValueType::Int);
  s.add("l_extendedprice", ValueType::Double);
  s.add("l_commitdate", ValueType::Int);
  s.add("l_receiptdate", ValueType::Int);
  return s;
}

Schema tpch_orders_schema() {
  Schema s;
  s.add("o_orderkey", ValueType::Int);
  s.add("o_custkey", ValueType::Int);
  s.add("o_orderstatus", ValueType::String);
  s.add("o_totalprice", ValueType::Double);
  s.add("o_orderdate", ValueType::Int);
  return s;
}

Schema tpch_part_schema() {
  Schema s;
  s.add("p_partkey", ValueType::Int);
  s.add("p_name", ValueType::String);
  return s;
}

Schema tpch_customer_schema() {
  Schema s;
  s.add("c_custkey", ValueType::Int);
  s.add("c_name", ValueType::String);
  return s;
}

Schema tpch_supplier_schema() {
  Schema s;
  s.add("s_suppkey", ValueType::Int);
  s.add("s_name", ValueType::String);
  s.add("s_nationkey", ValueType::Int);
  return s;
}

Schema tpch_nation_schema() {
  Schema s;
  s.add("n_nationkey", ValueType::Int);
  s.add("n_name", ValueType::String);
  return s;
}

TpchData generate_tpch(const TpchConfig& cfg) {
  Rng rng(cfg.seed);
  const Zipf lineitems(cfg.max_lineitems_per_order, cfg.lineitem_skew);
  TpchData d;
  d.lineitem = std::make_shared<Table>(tpch_lineitem_schema());
  d.orders = std::make_shared<Table>(tpch_orders_schema());
  d.part = std::make_shared<Table>(tpch_part_schema());
  d.customer = std::make_shared<Table>(tpch_customer_schema());
  d.supplier = std::make_shared<Table>(tpch_supplier_schema());
  d.nation = std::make_shared<Table>(tpch_nation_schema());
  Row row;  // one record's cells, reused across records and tables

  static const char* kNations[] = {
      "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
      "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
      "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
      "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
  const std::int64_t nations =
      std::min<std::int64_t>(cfg.nations, std::int64_t(std::size(kNations)));
  for (std::int64_t n = 0; n < nations; ++n) {
    row = {Value{n}, Value{kNations[n]}};
    d.nation->append(row);
  }

  for (std::int64_t p = 1; p <= cfg.parts; ++p) {
    row = {Value{p}, Value{"part#" + std::to_string(p)}};
    d.part->append(row);
  }

  for (std::int64_t c = 1; c <= cfg.customers; ++c) {
    row = {Value{c}, Value{"Customer#" + std::to_string(c)}};
    d.customer->append(row);
  }

  for (std::int64_t s = 1; s <= cfg.suppliers; ++s) {
    row = {Value{s}, Value{"Supplier#" + std::to_string(s)},
           Value{rng.uniform(0, nations - 1)}};
    d.supplier->append(row);
  }

  for (std::int64_t o = 1; o <= cfg.orders; ++o) {
    const std::int64_t custkey = rng.uniform(1, cfg.customers);
    const char* status = rng.uniform01() < 0.49 ? "F" : "O";
    const std::int64_t orderdate = rng.uniform(8036, 10591);  // 1992..1998
    double totalprice = 0;

    const std::int64_t items = 1 + lineitems(rng);
    for (std::int64_t i = 0; i < items; ++i) {
      const std::int64_t partkey = rng.uniform(1, cfg.parts);
      const std::int64_t suppkey = rng.uniform(1, cfg.suppliers);
      const std::int64_t quantity = rng.uniform(1, 50);
      const double price = static_cast<double>(quantity) *
                           (900.0 + static_cast<double>(partkey % 1000));
      totalprice += price;
      const std::int64_t commitdate = orderdate + rng.uniform(30, 90);
      // ~35% of lineitems are received after the commit date (Q21's
      // "waiting" condition needs a healthy population).
      const std::int64_t receiptdate =
          commitdate + (rng.uniform01() < 0.35 ? rng.uniform(1, 30)
                                               : -rng.uniform(0, 25));
      row = {Value{o},          Value{partkey},    Value{suppkey},
             Value{quantity},   Value{price},      Value{commitdate},
             Value{receiptdate}};
      d.lineitem->append(row);
    }
    row = {Value{o}, Value{custkey}, Value{status}, Value{totalprice},
           Value{orderdate}};
    d.orders->append(row);
  }
  return d;
}

}  // namespace ysmart
