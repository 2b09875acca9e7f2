#include "data/clicks_gen.h"

#include <algorithm>

#include "common/rng.h"

namespace ysmart {

Schema clicks_schema() {
  Schema s;
  s.add("uid", ValueType::Int);
  s.add("page_id", ValueType::Int);
  s.add("cid", ValueType::Int);
  s.add("ts", ValueType::Int);
  return s;
}

std::shared_ptr<Table> generate_clicks(const ClicksConfig& cfg) {
  Rng rng(cfg.seed);
  const Zipf category(cfg.categories, cfg.category_skew);
  auto t = std::make_shared<Table>(clicks_schema());
  Row click;  // one record's cells, reused across records
  for (std::int64_t u = 1; u <= cfg.users; ++u) {
    const std::int64_t n =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(rng.exponential(
                                      static_cast<double>(cfg.mean_clicks_per_user))));
    std::int64_t ts = rng.uniform(0, 1000);
    for (std::int64_t i = 0; i < n; ++i) {
      ts += rng.uniform(1, 300);  // strictly increasing per user
      const std::int64_t cid = category(rng);
      const std::int64_t page = rng.uniform(1, cfg.pages);
      click = {Value{u}, Value{page}, Value{cid}, Value{ts}};
      t->append(click);
    }
  }
  return t;
}

}  // namespace ysmart
