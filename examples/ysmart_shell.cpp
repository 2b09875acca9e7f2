// Interactive shell: type SQL against the generated TPC-H + clicks data
// and watch YSmart translate and execute it on the simulated cluster.
//
//   $ ./build/examples/ysmart_shell
//   ysmart> SELECT cid, count(*) AS n FROM clicks GROUP BY cid HAVING n > 100;
//   ysmart> \explain SELECT ... ;      (plan view: run + predicted-vs-actual
//                                        per-job EXPLAIN ANALYZE tree)
//   ysmart> \explain                    (re-print the last query's plan view)
//   ysmart> \dot SELECT ... ;          (Graphviz job DAG on stdout)
//   ysmart> \profile hive               (switch translator)
//   ysmart> \profile on                 (per-query span tree)
//   ysmart> \profile off
//   ysmart> \trace /tmp/query.trace.json  (Chrome trace of last profiled run)
//   ysmart> \analyze SELECT ... ;       (run + query-doctor skew report)
//   ysmart> \analyze                    (re-print analysis of last sampled run)
//   ysmart> \cluster [sql]              (cluster doctor: per-node rollup of
//                                        the last sampled run)
//   ysmart> \history [k]               (flight recorder: last k queries)
//   ysmart> \last [i]                   (re-print the i-th last analyze tree)
//   ysmart> \hotspots                   (host CPU/alloc table of last run)
//   ysmart> \flame /tmp/q.folded        (folded stacks for flamegraph.pl)
//   ysmart> \load mytable /path/data.csv   (schema inferred)
//   ysmart> \save /path/out.csv SELECT ... ;
//   ysmart> \tables
//   ysmart> \quit
//
// Environment: YSMART_TRACE=<file> records the whole session and writes
// a Chrome trace on exit; YSMART_EVENTS=<file> streams the structured
// event journal (JSONL) as it happens. The host-axis profiler is always
// on; it only feeds \hotspots and \flame, never simulated results.
//
// Also reads one-shot queries from the command line:
//   $ ./build/examples/ysmart_shell "SELECT count(*) AS n FROM lineitem"
#include <iostream>
#include <sstream>
#include <string>

#include "api/database.h"
#include "common/env.h"
#include "common/error.h"
#include "common/io.h"
#include "common/strings.h"
#include "data/clicks_gen.h"
#include "data/tpch_gen.h"
#include "obs/analyzer.h"
#include "obs/cluster_view.h"
#include "obs/obs.h"
#include "storage/csv.h"

namespace {

using namespace ysmart;

TranslatorProfile profile_by_name(const std::string& name) {
  if (name == "hive") return TranslatorProfile::hive();
  if (name == "pig") return TranslatorProfile::pig();
  if (name == "mrshare") return TranslatorProfile::mrshare();
  if (name == "hand" || name == "hand-coded")
    return TranslatorProfile::hand_coded();
  return TranslatorProfile::ysmart();
}

struct ShellObs {
  obs::ObsContext ctx;
  bool profiling = false;     // \profile on: print span tree per query
  bool session_trace = false; // YSMART_TRACE set: keep the whole session
  QueryMetrics last_metrics;  // most recent run, used by \dot annotation
};

// write_text_file reports failures itself (stderr, with the path); the
// shell only announces success.
void write_and_report(const std::string& path, const std::string& body) {
  if (write_text_file(path, body)) std::cout << "wrote " << path << "\n";
}

void run_sql(Database& db, const TranslatorProfile& profile,
             const std::string& sql, ShellObs& sobs) {
  try {
    // Without a session-long trace, each profiled query gets a fresh
    // timeline (and fresh task samples) so the printed tree, a following
    // \trace, and a bare \analyze cover just that query.
    if (db.observer() && !sobs.session_trace) {
      sobs.ctx.tracer.clear();
      sobs.ctx.samples.clear();
      sobs.ctx.profiler.clear();  // \hotspots / \flame cover this query
    }
    auto run = db.run(sql, profile);
    sobs.last_metrics = run.metrics;
    if (run.metrics.failed()) {
      std::cout << strf("query DNF after %d job(s): %s\n",
                        run.metrics.job_count(),
                        run.metrics.fail_reason().c_str());
      return;
    }
    std::cout << run.result->to_string(25);
    std::cout << strf("(%zu rows; %d job(s); %.1f simulated seconds; "
                      "profile %s)\n",
                      run.result->row_count(), run.metrics.job_count(),
                      run.metrics.total_time_s(), profile.name.c_str());
    if (sobs.profiling) std::cout << sobs.ctx.tracer.analyze_tree();
  } catch (const Error& e) {
    std::cout << e.what() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Database db(ClusterConfig::small_local(/*sim_scale=*/200));

  TpchConfig tc;
  tc.orders = 4000;
  auto tpch = generate_tpch(tc);
  db.create_table("lineitem", tpch.lineitem);
  db.create_table("orders", tpch.orders);
  db.create_table("part", tpch.part);
  db.create_table("customer", tpch.customer);
  db.create_table("supplier", tpch.supplier);
  db.create_table("nation", tpch.nation);
  ClicksConfig cc;
  cc.users = 800;
  db.create_table("clicks", generate_clicks(cc));

  TranslatorProfile profile = TranslatorProfile::ysmart();

  ShellObs sobs;
  // Host profiling is on whenever an observer is attached; it records
  // host-axis state only, so simulated output is unchanged.
  sobs.ctx.profiler.set_enabled(true);
  const auto trace_env = env_nonempty("YSMART_TRACE");
  const auto events_env = env_nonempty("YSMART_EVENTS");
  const bool env_obs = trace_env || events_env;
  if (env_obs) {
    sobs.session_trace = trace_env.has_value();
    if (events_env) sobs.ctx.events.open_sink(*events_env);
    db.set_observer(&sobs.ctx);
  }
  auto write_env_outputs = [&] {
    if (trace_env)
      write_and_report(*trace_env,
                       sobs.ctx.tracer.chrome_json(obs::TimeAxis::Both));
    if (events_env && sobs.ctx.events.sink_open()) {
      sobs.ctx.events.close_sink();
      std::cout << "wrote " << *events_env << "\n";
    }
  };

  if (argc > 1) {
    run_sql(db, profile, argv[1], sobs);
    write_env_outputs();
    return 0;
  }

  std::cout << "ysmart interactive shell - tables: ";
  for (const auto& t : db.catalog().table_names()) std::cout << t << " ";
  std::cout << "\ncommands: \\explain [sql]  \\analyze [sql]  \\cluster "
               "[sql]  \\profile "
               "<ysmart|hive|pig|mrshare|hand|on|off>  \\trace <file>  "
               "\\history [k]  \\last [i]  \\hotspots  "
               "\\flame <file>  \\tables  \\quit\n";

  std::string line;
  while (std::cout << "ysmart> " << std::flush, std::getline(std::cin, line)) {
    // Trim.
    const auto a = line.find_first_not_of(" \t");
    if (a == std::string::npos) continue;
    const auto b = line.find_last_not_of(" \t;");
    line = line.substr(a, b - a + 1);
    if (line.empty()) continue;

    if (line[0] == '\\') {
      std::istringstream iss(line.substr(1));
      std::string cmd;
      iss >> cmd;
      if (cmd == "quit" || cmd == "q") break;
      if (cmd == "tables") {
        for (const auto& t : db.catalog().table_names())
          std::cout << "  " << t << "  "
                    << db.catalog().schema_of(t).to_string() << "\n";
        continue;
      }
      if (cmd == "profile") {
        std::string name;
        iss >> name;
        if (name == "on" || name == "off") {
          sobs.profiling = name == "on";
          if (sobs.profiling)
            db.set_observer(&sobs.ctx);
          else if (!env_obs)
            db.set_observer(nullptr);
          std::cout << "profiling: " << name << "\n";
        } else {
          profile = profile_by_name(name);
          std::cout << "profile: " << profile.name << "\n";
        }
        continue;
      }
      if (cmd == "trace") {
        std::string path;
        iss >> path;
        if (path.empty()) {
          std::cout << "usage: \\trace <file>\n";
        } else if (!db.observer()) {
          std::cout << "nothing traced yet - \\profile on first\n";
        } else {
          write_and_report(path,
                           sobs.ctx.tracer.chrome_json(obs::TimeAxis::Both));
        }
        continue;
      }
      if (cmd == "history") {
        std::size_t k = 0;
        iss >> k;
        if (sobs.ctx.history.size() == 0)
          std::cout << "no queries recorded yet - \\profile on and run "
                       "a query\n";
        else
          std::cout << sobs.ctx.history.table(k);
        continue;
      }
      if (cmd == "last") {
        std::size_t i = 0;
        iss >> i;
        obs::QueryHistoryRecord rec;
        if (!sobs.ctx.history.at(i, &rec)) {
          std::cout << "no such history entry (have "
                    << sobs.ctx.history.size() << ")\n";
        } else {
          std::cout << strf("#%llu [%s] %s\n",
                            static_cast<unsigned long long>(rec.id),
                            rec.profile.c_str(), rec.sql.c_str());
          std::cout << rec.analyzer_text;
        }
        continue;
      }
      if (cmd == "hotspots") {
        if (sobs.ctx.profiler.phase_count() == 0)
          std::cout << "no host phases recorded yet - \\profile on and run "
                       "a query\n";
        else
          std::cout << sobs.ctx.profiler.hotspots_table();
        continue;
      }
      if (cmd == "flame") {
        std::string path;
        iss >> path;
        if (path.empty())
          std::cout << "usage: \\flame <file>  (then: flamegraph.pl <file> "
                       "> flame.svg)\n";
        else if (sobs.ctx.profiler.phase_count() == 0)
          std::cout << "no host phases recorded yet - \\profile on and run "
                       "a query\n";
        else
          write_and_report(path,
                           sobs.ctx.profiler.folded_stacks(sobs.ctx.tracer));
        continue;
      }
      if (cmd == "analyze" || cmd == "cluster" || cmd == "explain") {
        std::string rest;
        std::getline(iss, rest);
        const auto c = rest.find_first_not_of(" \t");
        rest = c == std::string::npos ? std::string() : rest.substr(c);
        if (!rest.empty()) {
          // Run with the observer attached for the duration so samples
          // and the plan view are retained even when profiling is off.
          const bool had_obs = db.observer() != nullptr;
          if (!had_obs) db.set_observer(&sobs.ctx);
          run_sql(db, profile, rest, sobs);
          if (!had_obs) db.set_observer(nullptr);
        }
        obs::QueryHistoryRecord last;
        if (cmd == "explain") {
          // The plan view is empty when the query stopped before its last
          // predicted job.
          if (sobs.ctx.history.at(0, &last) && last.plan)
            std::cout << last.plan->text();
          else
            std::cout << "no plan view for the last observed query - "
                         "\\explain <sql>\n";
        } else if (sobs.ctx.samples.query_count() == 0) {
          std::cout << "nothing sampled yet - \\" << cmd
                    << " <sql>, or \\profile on and run a query\n";
        } else if (cmd == "cluster") {
          std::cout
              << obs::build_cluster_view(sobs.ctx.samples.last_query()).text();
        } else {
          std::cout << obs::analyze_query(sobs.ctx.samples.last_query()).text();
        }
        continue;
      }
      if (cmd == "dot") {
        std::string rest;
        std::getline(iss, rest);
        try {
          // Annotate with the last run's metrics when the job names line
          // up (to_dot matches by name, so a different query simply gets
          // no annotations).
          const QueryMetrics* m =
              sobs.last_metrics.jobs.empty() ? nullptr : &sobs.last_metrics;
          std::cout << db.translate_query(rest, profile).to_dot(m);
        } catch (const Error& e) {
          std::cout << e.what() << "\n";
        }
        continue;
      }
      if (cmd == "load") {
        std::string name, path;
        iss >> name >> path;
        try {
          auto t = read_csv_file_infer(path);
          db.create_table(name, t);
          std::cout << "loaded " << t->row_count() << " rows into " << name
                    << " " << t->schema().to_string() << "\n";
        } catch (const Error& e) {
          std::cout << e.what() << "\n";
        }
        continue;
      }
      if (cmd == "save") {
        std::string path, rest;
        iss >> path;
        std::getline(iss, rest);
        try {
          auto run = db.run(rest, profile);
          if (run.metrics.failed()) {
            std::cout << "query DNF: " << run.metrics.fail_reason() << "\n";
            continue;
          }
          write_csv_file(*run.result, path);
          std::cout << "wrote " << run.result->row_count() << " rows to "
                    << path << "\n";
        } catch (const Error& e) {
          std::cout << e.what() << "\n";
        }
        continue;
      }
      std::cout << "unknown command: " << cmd << "\n";
      continue;
    }
    run_sql(db, profile, line, sobs);
  }
  write_env_outputs();
  return 0;
}
