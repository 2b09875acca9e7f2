// Golden pin of every observation surface.
//
// Runs a fixed set of queries with one ObsContext attached and renders
// everything the observers recorded — the event journal, the sim-axis
// trace and span tree, the host profiler's phase list, the per-query
// analyzer, cluster and plan views, and the flight recorder — into one
// canonical text, with the host-dependent parts (wall clocks, host
// milliseconds) left out.
// The text is compared byte for byte against
// tests/golden/obs_surfaces.txt.
//
// On a mismatch the produced text is written to obs_surfaces.actual.txt
// next to the test binary, so the difference can be diffed and, when a
// surface change is intended, copied over the golden file (which is also
// how the golden file is first made).
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>

#include "api/database.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "data/clicks_gen.h"
#include "data/queries.h"
#include "data/tpch_gen.h"
#include "mr/engine.h"
#include "obs/analyzer.h"
#include "obs/cluster_view.h"
#include "obs/obs.h"

namespace ysmart {
namespace {

/// Re-indents one JSON document, one member or element per line, so the
/// golden file diffs line by line. String contents are copied verbatim.
std::string pretty_json(const std::string& s) {
  std::string out;
  int depth = 0;
  bool in_string = false;
  auto newline = [&] {
    out += '\n';
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
  };
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < s.size()) out += s[++i];
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; out += c; break;
      case '{':
      case '[':
        out += c;
        if (i + 1 < s.size() && (s[i + 1] == '}' || s[i + 1] == ']')) {
          out += s[++i];
          break;
        }
        ++depth;
        newline();
        break;
      case '}':
      case ']':
        --depth;
        newline();
        out += c;
        break;
      case ',': out += c; newline(); break;
      default: out += c;
    }
  }
  return out + "\n";
}

MRJobSpec counting_spec(const std::string& name, const std::string& out_path) {
  MRJobSpec spec;
  spec.name = name;
  spec.inputs = {{"/in", 0}};
  Schema out;
  out.add("k", ValueType::Int);
  out.add("n", ValueType::Int);
  spec.outputs = {{out_path, out}};
  spec.key_column_names = {"k"};
  struct M final : Mapper {
    void map(const Row& r, int, MapEmitter& e) override {
      e.emit(Row{r[0]}, Row{Value{1}});
    }
  };
  struct R final : Reducer {
    void reduce(const Row& k, std::span<const KeyValue> v,
                ReduceEmitter& e) override {
      e.emit(Row{k[0], Value{static_cast<std::int64_t>(v.size())}});
    }
  };
  spec.make_mapper = [] { return std::make_unique<M>(); };
  spec.make_reducer = [] { return std::make_unique<R>(); };
  return spec;
}

class GoldenRun {
 public:
  GoldenRun() : pool_(2) {
    TpchConfig tc;
    tc.orders = 300;
    tc.parts = 60;
    tc.customers = 40;
    tc.suppliers = 50;
    tpch_ = generate_tpch(tc);
    ClicksConfig cc;
    cc.users = 40;
    cc.mean_clicks_per_user = 10;
    clicks_ = generate_clicks(cc);
    ctx_.profiler.set_enabled(true);
  }

  /// Two back-to-back jobs straight on an engine, before any query: they
  /// land in the implicit query group and advance the sim cursor.
  void standalone_jobs() {
    auto cfg = ClusterConfig::small_local(50);
    cfg.contention.enabled = true;  // a scheduling delay: the sched span
    cfg.task_failure_rate = 0.2;
    Dfs dfs(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication);
    Schema ks;
    ks.add("k", ValueType::Int);
    auto keys = std::make_shared<Table>(ks);
    for (int i = 0; i < 600; ++i) keys->append({Value{i % 37}});
    dfs.write("/in", keys);
    Engine engine(dfs, cfg, &pool_);
    engine.set_obs(&ctx_);
    for (const char* name : {"count-a", "count-b"}) {
      const JobMetrics m = engine.run(counting_spec(name, std::string("/") + name));
      text_ += strf("== standalone %s: failed=%d total=%.6f\n", name,
                    m.failed ? 1 : 0, m.total_time_s());
    }
    text_ += "analyzer:\n" +
             pretty_json(obs::analyze_query(ctx_.samples.last_query()).json());
  }

  void query(const std::string& label, const std::string& sql,
             const TranslatorProfile& profile, const ClusterConfig& cfg) {
    Database db(cfg, &pool_);
    for (const auto& [name, t] :
         {std::pair{"lineitem", tpch_.lineitem}, std::pair{"orders", tpch_.orders},
          std::pair{"part", tpch_.part}, std::pair{"supplier", tpch_.supplier},
          std::pair{"nation", tpch_.nation}})
      db.create_table(name, t);
    db.create_table("clicks", clicks_);
    db.set_observer(&ctx_);
    const QueryRunResult r = db.run(sql, profile);
    text_ += strf("== query %s (%s): jobs=%d failed=%d wall=%.6f total=%.6f "
                  "rows=%zu\n",
                  label.c_str(), profile.name.c_str(), r.metrics.job_count(),
                  r.metrics.failed() ? 1 : 0, r.metrics.wall_time_s,
                  r.metrics.total_time_s(),
                  r.result ? r.result->row_count() : 0);
    const obs::QueryTaskSamples qs = ctx_.samples.last_query();
    text_ += "analyzer:\n" + pretty_json(obs::analyze_query(qs).json());
    text_ += "cluster:\n" + pretty_json(obs::build_cluster_view(qs).json());
    obs::QueryHistoryRecord rec;
    if (ctx_.history.at(0, &rec) && rec.plan)
      text_ += "plan:\n" + pretty_json(rec.plan->json(/*full=*/true));
  }

  std::string canonical() const {
    std::string out = text_;
    out += "== events\n" + ctx_.events.jsonl(obs::EventLog::IncludeWall::No);
    out += "== trace (simulated axis)\n" +
           pretty_json(ctx_.tracer.chrome_json(obs::TimeAxis::Simulated));
    out += strf("== spans (well_formed=%d)\n",
                ctx_.tracer.well_formed() ? 1 : 0);
    for (const auto& s : ctx_.tracer.spans())
      out += strf("%d parent=%d %s [%s]\n", s.id, s.parent, s.name.c_str(),
                  s.category.c_str());
    out += "== host phases\n";
    for (const auto& p : ctx_.profiler.snapshot())
      out += strf("%s %s span=%d\n", p.job.c_str(), p.phase.c_str(), p.span_id);
    out += "== history\n" +
           pretty_json(std::regex_replace(ctx_.history.json(),
                                          std::regex(R"("host_wall_ms":[^,]*,)"),
                                          ""));
    return out;
  }

  TpchData tpch_;
  std::shared_ptr<Table> clicks_;

 private:
  ThreadPool pool_;
  obs::ObsContext ctx_;
  std::string text_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ObsGolden, EverySurfaceMatchesTheGoldenText) {
  GoldenRun g;
  g.standalone_jobs();

  ClusterConfig base = ClusterConfig::small_local(50);
  TranslatorProfile concurrent = TranslatorProfile::ysmart();
  concurrent.concurrent_job_submission = true;
  ClusterConfig flaky = base;
  flaky.task_failure_rate = 0.3;
  g.query("Q21", queries::q21().sql, concurrent, flaky);
  // YSmart chains Q21 into one job per wave; Hive's Q17 plan submits its
  // independent jobs together, so waves hold several jobs.
  TranslatorProfile hive_concurrent = TranslatorProfile::hive();
  hive_concurrent.concurrent_job_submission = true;
  g.query("Q17", queries::q17().sql, hive_concurrent, flaky);
  g.query("Q-AGG", queries::qagg().sql, TranslatorProfile::ysmart(), base);
  g.query("scan",
          "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 45",
          TranslatorProfile::ysmart(), base);
  ClusterConfig doomed = base;
  doomed.task_failure_rate = 1.0;
  g.query("exhausted",
          "SELECT n_name, count(*) AS c FROM nation GROUP BY n_name ORDER BY c",
          TranslatorProfile::ysmart(), doomed);
  ClusterConfig tight = base;
  tight.local_disk_capacity_bytes = 2u << 20;
  g.query("Q-CSA", queries::qcsa().sql, TranslatorProfile::pig(), tight);

  const std::string actual = g.canonical();
  const std::string golden_path =
      std::string(YSMART_GOLDEN_DIR) + "/obs_surfaces.txt";
  const std::string expected = read_file(golden_path);
  if (actual != expected) {
    const std::string out_path =
        std::string(YSMART_TEST_BINARY_DIR) + "/obs_surfaces.actual.txt";
    std::ofstream(out_path, std::ios::binary) << actual;
    FAIL() << "observation surfaces differ from " << golden_path
           << "; the produced text is in " << out_path;
  }
}

}  // namespace
}  // namespace ysmart
