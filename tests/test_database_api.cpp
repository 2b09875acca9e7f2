// Unit tests for the public Database facade: table registration, explain,
// run, cluster reconfiguration, error paths.
#include <gtest/gtest.h>

#include "api/database.h"
#include "common/error.h"
#include "data/clicks_gen.h"
#include "data/queries.h"
#include "obs/obs.h"

namespace ysmart {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : db_(ClusterConfig::small_local(1.0)) {
    ClicksConfig c;
    c.users = 100;
    c.mean_clicks_per_user = 15;
    db_.create_table("clicks", generate_clicks(c));
  }
  Database db_;
};

TEST_F(DatabaseTest, CreateTableRegistersCatalogAndDfs) {
  EXPECT_TRUE(db_.catalog().has_table("clicks"));
  EXPECT_TRUE(db_.dfs().exists("/tables/clicks"));
}

TEST_F(DatabaseTest, PlanParsesAndResolves) {
  auto p = db_.plan("SELECT uid, count(*) AS n FROM clicks GROUP BY uid");
  EXPECT_EQ(p->kind, PlanKind::Agg);
}

TEST_F(DatabaseTest, ExplainShowsPlanCorrelationsAndJobs) {
  const std::string text =
      db_.explain(queries::qagg().sql, TranslatorProfile::ysmart());
  EXPECT_NE(text.find("== plan =="), std::string::npos);
  EXPECT_NE(text.find("== correlations =="), std::string::npos);
  EXPECT_NE(text.find("== jobs (ysmart) =="), std::string::npos);
}

TEST_F(DatabaseTest, RunCleansUpScratch) {
  auto before = db_.dfs().list().size();
  db_.run(queries::qagg().sql, TranslatorProfile::ysmart());
  EXPECT_EQ(db_.dfs().list().size(), before);  // scratch removed
}

TEST_F(DatabaseTest, RunsAreIsolated) {
  auto r1 = db_.run(queries::qagg().sql, TranslatorProfile::ysmart());
  auto r2 = db_.run(queries::qagg().sql, TranslatorProfile::ysmart());
  EXPECT_TRUE(same_rows_unordered(*r1.result, *r2.result));
}

TEST_F(DatabaseTest, ReconfigureClusterKeepsTables) {
  db_.reconfigure_cluster(ClusterConfig::ec2(11, 1.0));
  EXPECT_EQ(db_.cluster().worker_nodes, 11);
  EXPECT_TRUE(db_.dfs().exists("/tables/clicks"));
  auto r = db_.run(queries::qagg().sql, TranslatorProfile::ysmart());
  EXPECT_GT(r.result->row_count(), 0u);
}

TEST_F(DatabaseTest, MoreNodesRunFaster) {
  // Enough blocks that the 11-node cluster needs several map waves.
  ClicksConfig c;
  c.users = 3000;
  c.seed = 5;
  db_.create_table("bigclicks", generate_clicks(c));
  const std::string sql =
      "SELECT cid, count(*) AS n FROM bigclicks GROUP BY cid";
  db_.reconfigure_cluster(ClusterConfig::ec2(11, 2000.0));
  auto small = db_.run(sql, TranslatorProfile::ysmart());
  db_.reconfigure_cluster(ClusterConfig::ec2(101, 2000.0));
  auto big = db_.run(sql, TranslatorProfile::ysmart());
  EXPECT_LT(big.metrics.total_time_s(), small.metrics.total_time_s());
}

TEST_F(DatabaseTest, UnknownTableThrowsPlanError) {
  EXPECT_THROW(db_.run("SELECT x FROM ghost", TranslatorProfile::ysmart()),
               PlanError);
}

TEST_F(DatabaseTest, UnknownColumnInAnExpressionFailsBeforeAnyJobRuns) {
  // At plan time, not after the aggregation job under the derived table
  // has already run.
  obs::ObsContext obs;
  db_.set_observer(&obs);
  EXPECT_THROW(db_.run("SELECT t.k + nosuch AS x FROM (SELECT uid AS k, "
                       "count(*) AS n FROM clicks GROUP BY uid) t ORDER BY x",
                       TranslatorProfile::ysmart()),
               PlanError);
  EXPECT_EQ(obs.samples.total_jobs(), 0u);
}

TEST_F(DatabaseTest, BadSqlThrowsParseError) {
  EXPECT_THROW(db_.plan("SELEKT broken"), ParseError);
}

TEST_F(DatabaseTest, NullTableRejected) {
  EXPECT_THROW(db_.create_table("x", nullptr), InternalError);
}

TEST_F(DatabaseTest, DbmsRunReturnsCostAndResult) {
  DbmsCostConfig cfg;
  cfg.sim_scale = 10;
  auto r = db_.run_dbms(queries::qagg().sql, cfg);
  EXPECT_GT(r.sim_seconds, 0);
  Table expected = db_.run_reference(queries::qagg().sql);
  EXPECT_TRUE(same_rows_unordered(expected, r.result));
}

}  // namespace
}  // namespace ysmart
