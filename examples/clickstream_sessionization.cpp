// Click-stream analysis: the paper's motivating workload (Section I).
//
// Runs Q-CSA — "what is the average number of pages a user visits between
// a page in category X and a page in category Y?" — and shows how YSmart
// collapses the six-operation plan (two self-join instances + four
// aggregations/joins) into two MapReduce jobs while Hive-style
// translation needs six.
#include <iostream>

#include "api/database.h"
#include "common/strings.h"
#include "data/clicks_gen.h"
#include "data/queries.h"

int main() {
  using namespace ysmart;

  Database db(ClusterConfig::small_local(/*sim_scale=*/500));
  ClicksConfig cfg;
  cfg.users = 3000;
  cfg.mean_clicks_per_user = 40;
  db.create_table("clicks", generate_clicks(cfg));

  const auto& q = queries::qcsa();
  std::cout << "Q-CSA (Fig. 1 of the paper):\n" << q.sql << "\n";

  std::cout << db.explain(q.sql, TranslatorProfile::ysmart());

  std::cout << "\n--- execution ---\n";
  for (const auto& profile :
       {TranslatorProfile::ysmart(), TranslatorProfile::hive(),
        TranslatorProfile::pig()}) {
    auto run = db.run(q.sql, profile);
    std::cout << strf("%-8s %2d jobs  %8.1f simulated s   result: %s\n",
                      profile.name.c_str(), run.metrics.job_count(),
                      run.metrics.total_time_s(),
                      run.result->row_count()
                          ? run.result->row(0)[0].to_string().c_str()
                          : "(empty)");
  }

  std::cout << "\nper-job breakdown (ysmart):\n";
  std::cout << db.run(q.sql, TranslatorProfile::ysmart()).metrics.breakdown();
  return 0;
}
