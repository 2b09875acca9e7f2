// Machine-readable bench output: --json, --trace, --analyze, --cluster,
// --explain and --folded.
//
// Every figure bench accepts
//
//   fig10_small_cluster --json BENCH_fig10.json --trace fig10.trace.json
//
// --json writes one JSON document (schema: bench/bench_schema.json,
// validated in CI by tools/validate_bench_json.py) with one record per
// (query, profile) run: job count, failure, simulated per-phase times,
// byte counters and per-job times. The report holds no host-clock value:
// it is a pure function of the code and of the toolchain its header
// names, so two runs at any YSMART_THREADS write the same bytes, and
// tools/bench_diff.py compares every record field for field against
// BENCH_baseline.json. --trace additionally attaches an observability
// context to every recorded run and writes the combined Chrome
// trace_event file, loadable in chrome://tracing or Perfetto.
// --analyze also attaches the context, runs the query-doctor analyzer
// (obs/analyzer.h) over each run's task samples, embeds the analysis in
// each --json record under "analyzer", and writes a standalone analyses
// document (schema: bench/analyzer_schema.json) with the rendered text
// reports. --cluster <path> attaches the context too and writes the
// cluster-axis document (schema: bench/cluster_schema.json): one entry
// per run with the full per-node rollup, shuffle traffic matrix and
// slot-occupancy timeline (obs/cluster_view.h); when --trace is also
// given, the per-node tracks appear in the Chrome trace as pid 3.
// --explain <path> attaches the context too and takes each run's plan
// view from its history record (obs/history.h): the compact
// predicted-vs-actual report goes into the --json record under "plan",
// and the full one into the standalone plan document (schema:
// bench/plan_schema.json). A run that stopped before its last predicted
// job has no plan view, so it gets neither.
// --folded <path> turns the host profiler on and writes the whole bench's
// folded-stack flamegraph (pipe through flamegraph.pl); host numbers go
// nowhere else.
// Without flags no observer is attached and nothing is written.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/io.h"
#include "common/json.h"
#include "mr/metrics.h"
#include "obs/analyzer.h"
#include "obs/cluster_view.h"
#include "obs/obs.h"

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

namespace ysmart::bench {

/// Build identifier for the JSON header: CI's GITHUB_SHA when set, else
/// the HEAD of the source tree the bench was built from (YSMART_SOURCE_DIR,
/// set by bench/CMakeLists.txt), else "unknown". The working directory
/// plays no part, so a report's bytes do not depend on where it was run.
inline std::string git_sha() {
  if (const char* sha = std::getenv("GITHUB_SHA"); sha && *sha)
    return std::string(sha).substr(0, 12);
  std::string out;
#ifdef YSMART_SOURCE_DIR
  // Single-quoted for the shell; a quote inside the path is closed,
  // escaped and reopened.
  std::string dir = "'";
  for (const char c : std::string_view(YSMART_SOURCE_DIR))
    dir += c == '\'' ? std::string("'\\''") : std::string(1, c);
  dir += "'";
  const std::string cmd =
      "git -C " + dir + " rev-parse --short=12 HEAD 2>/dev/null";
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), p)) out = buf;
    ::pclose(p);
  }
#endif
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

/// The compiler and C library the bench was built and runs with, e.g.
/// "gcc 12.2.0, glibc 2.36". Simulated values are bit-exact only on one
/// toolchain (the data generators and the contention draws go through
/// libm), so bench_diff compares reports only against a baseline blessed
/// on the same one.
inline std::string toolchain() {
#if defined(__clang__)
  std::string out = std::string("clang ") + __clang_version__;
#else
  std::string out = std::string("gcc ") + __VERSION__;
#endif
#if defined(__GLIBC__)
  out += std::string(", glibc ") + gnu_get_libc_version();
#else
  out += ", unknown libc";
#endif
  return out;
}

class Report {
 public:
  /// bench/bench_schema.json's version. The analyzer, cluster and plan
  /// documents carry kViewSchemaVersion.
  static constexpr int kSchemaVersion = 2;
  static constexpr int kViewSchemaVersion = 1;

  Report(std::string bench_name, int argc, char** argv)
      : bench_(std::move(bench_name)) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) json_path_ = argv[i + 1];
      if (std::strcmp(argv[i], "--trace") == 0) trace_path_ = argv[i + 1];
      if (std::strcmp(argv[i], "--analyze") == 0) analyze_path_ = argv[i + 1];
      if (std::strcmp(argv[i], "--cluster") == 0) cluster_path_ = argv[i + 1];
      if (std::strcmp(argv[i], "--folded") == 0) folded_path_ = argv[i + 1];
      if (std::strcmp(argv[i], "--explain") == 0) explain_path_ = argv[i + 1];
    }
    if (profiling()) obs_.profiler.set_enabled(true);
  }

  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  ~Report() { write(); }

  bool tracing() const { return !trace_path_.empty(); }
  bool analyzing() const { return !analyze_path_.empty(); }
  bool clustering() const { return !cluster_path_.empty(); }
  bool explaining() const { return !explain_path_.empty(); }
  bool profiling() const { return !folded_path_.empty(); }
  /// The observability context runs attach, or null when neither tracing,
  /// analyzing, clustering, explaining nor profiling.
  obs::ObsContext* obs() {
    return tracing() || analyzing() || clustering() || explaining() ||
                   profiling()
               ? &obs_
               : nullptr;
  }

  void record(const std::string& query, const std::string& profile,
              const QueryMetrics& m) {
    Record r;
    r.query = query;
    r.profile = profile;
    r.metrics = m;
    if (analyzing() && obs_.samples.query_count() > 0) {
      // The run just recorded is the sample store's most recent query.
      const obs::AnalyzerReport a =
          obs::analyze_query(obs_.samples.last_query());
      r.analyzer_json = a.json();
      r.analyzer_text = a.text();
    }
    if (clustering() && obs_.samples.query_count() > 0) {
      const obs::ClusterReport cluster =
          obs::build_cluster_view(obs_.samples.last_query());
      r.cluster_json = cluster.json();
      if (tracing()) {
        // The tracer's sim cursor has already advanced past this run, so
        // the run's simulated epoch is cursor minus its simulated span.
        const double epoch = obs_.tracer.sim_now() - m.wall_time_s;
        for (auto& ev : cluster.chrome_events(epoch))
          trace_extra_events_.push_back(std::move(ev));
      }
    }
    // The run just recorded is the flight recorder's latest query.
    obs::QueryHistoryRecord h;
    if (explaining() && obs_.history.at(0, &h) && h.plan) {
      r.plan_json_full = h.plan->json(/*full=*/true);
      r.plan_json_compact = h.plan->json(/*full=*/false);
    }
    records_.push_back(std::move(r));
  }

  /// Write the JSON report and trace file now (also runs at destruction;
  /// idempotent). Returns false if a file could not be written.
  bool write() {
    bool ok = true;
    if (!json_path_.empty()) {
      ok &= write_file(json_path_, json());
      json_path_.clear();
    }
    if (!trace_path_.empty()) {
      ok &= write_file(trace_path_,
                       obs_.tracer.chrome_json(obs::TimeAxis::Both,
                                               trace_extra_events_));
      trace_path_.clear();
    }
    if (!analyze_path_.empty()) {
      ok &= write_file(analyze_path_, analyses_json());
      analyze_path_.clear();
    }
    if (!cluster_path_.empty()) {
      ok &= write_file(cluster_path_, clusters_json());
      cluster_path_.clear();
    }
    if (!folded_path_.empty()) {
      ok &= write_file(folded_path_, obs_.profiler.folded_stacks(obs_.tracer));
      folded_path_.clear();
    }
    if (!explain_path_.empty()) {
      ok &= write_file(explain_path_, plans_json());
      explain_path_.clear();
    }
    return ok;
  }

  /// The standalone plan-axis document (bench/plan_schema.json): one
  /// entry per recorded run with the full predicted-vs-actual report.
  std::string plans_json() const {
    JsonWriter w;
    w.begin_object();
    w.kv("schema_version", kViewSchemaVersion);
    w.kv("bench", std::string_view(bench_));
    w.kv("git_sha", std::string_view(git_sha()));
    w.key("plans").begin_array();
    for (const auto& r : records_) {
      if (r.plan_json_full.empty()) continue;
      w.begin_object();
      w.kv("query", std::string_view(r.query));
      w.kv("profile", std::string_view(r.profile));
      w.key("plan").raw(r.plan_json_full);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take();
  }

  /// The standalone cluster-axis document (bench/cluster_schema.json):
  /// one entry per recorded run with the full cluster report (per-node
  /// rollup, traffic matrix, slot timeline, doctor diagnosis).
  std::string clusters_json() const {
    JsonWriter w;
    w.begin_object();
    w.kv("schema_version", kViewSchemaVersion);
    w.kv("bench", std::string_view(bench_));
    w.kv("git_sha", std::string_view(git_sha()));
    w.key("clusters").begin_array();
    for (const auto& r : records_) {
      if (r.cluster_json.empty()) continue;
      w.begin_object();
      w.kv("query", std::string_view(r.query));
      w.kv("profile", std::string_view(r.profile));
      w.key("cluster").raw(r.cluster_json);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take();
  }

  /// The standalone analyses document (bench/analyzer_schema.json).
  std::string analyses_json() const {
    JsonWriter w;
    w.begin_object();
    w.kv("schema_version", kViewSchemaVersion);
    w.kv("bench", std::string_view(bench_));
    w.kv("git_sha", std::string_view(git_sha()));
    w.key("analyses").begin_array();
    for (const auto& r : records_) {
      if (r.analyzer_json.empty()) continue;
      w.begin_object();
      w.kv("query", std::string_view(r.query));
      w.kv("profile", std::string_view(r.profile));
      w.key("analyzer").raw(r.analyzer_json);
      w.kv("text", std::string_view(r.analyzer_text));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take();
  }

  std::string json() const {
    JsonWriter w;
    w.begin_object();
    w.kv("schema_version", kSchemaVersion);
    w.kv("bench", std::string_view(bench_));
    w.kv("git_sha", std::string_view(git_sha()));
    w.kv("toolchain", std::string_view(toolchain()));
    w.key("records").begin_array();
    for (const auto& r : records_) {
      const QueryMetrics& m = r.metrics;
      double sched = 0, map_s = 0, reduce_s = 0;
      std::uint64_t map_input = 0, shuffle_raw = 0, shuffle_wire = 0,
                    dfs_write = 0, remote_read = 0;
      for (const auto& j : m.jobs) {
        sched += j.sched_delay_s;
        map_s += j.map_time_s;
        reduce_s += j.reduce_time_s;
        map_input += j.map.input_bytes;
        shuffle_raw += j.shuffle_bytes_raw;
        shuffle_wire += j.shuffle_bytes_wire;
        dfs_write += j.dfs_write_bytes;
        remote_read += j.remote_read_bytes;
      }
      w.begin_object();
      w.kv("query", std::string_view(r.query));
      w.kv("profile", std::string_view(r.profile));
      w.kv("jobs", static_cast<std::uint64_t>(m.jobs.size()));
      w.kv("failed", m.failed());
      w.key("sim").begin_object();
      w.kv("total_s", m.total_time_s());
      w.kv("wall_s", m.wall_time_s);
      w.kv("sched_s", sched);
      w.kv("map_s", map_s);
      w.kv("reduce_s", reduce_s);
      w.end_object();
      w.key("bytes").begin_object();
      w.kv("map_input", map_input);
      w.kv("shuffle_raw", shuffle_raw);
      w.kv("shuffle_wire", shuffle_wire);
      w.kv("dfs_write", dfs_write);
      w.kv("remote_read", remote_read);
      w.end_object();
      if (!r.analyzer_json.empty()) w.key("analyzer").raw(r.analyzer_json);
      if (!r.plan_json_compact.empty()) w.key("plan").raw(r.plan_json_compact);
      w.key("per_job").begin_array();
      for (const auto& j : m.jobs) {
        w.begin_object();
        w.kv("name", std::string_view(j.job_name));
        w.kv("map_s", j.map_time_s);
        w.kv("reduce_s", j.reduce_time_s);
        w.kv("shuffle_wire", j.shuffle_bytes_wire);
        w.kv("failed", j.failed);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take();
  }

 private:
  struct Record {
    std::string query;
    std::string profile;
    QueryMetrics metrics;
    std::string analyzer_json;  // empty unless --analyze
    std::string analyzer_text;
    std::string cluster_json;  // empty unless --cluster
    std::string plan_json_full;     // empty unless --explain
    std::string plan_json_compact;  // embedded under the record's "plan"
  };

  static bool write_file(const std::string& path, const std::string& body) {
    return write_text_file(path, body);
  }

  std::string bench_;
  std::string json_path_;
  std::string trace_path_;
  std::string analyze_path_;
  std::string cluster_path_;
  std::string folded_path_;
  std::string explain_path_;
  std::vector<std::string> trace_extra_events_;
  std::vector<Record> records_;
  obs::ObsContext obs_;
};

/// Run one (query, profile) pair through `db` and record the result in
/// `report`, with the report's observability context (if any) attached
/// for the duration of the run.
inline QueryRunResult run_and_record(Report& report, Database& db,
                                     const std::string& query_id,
                                     const std::string& sql,
                                     const TranslatorProfile& profile) {
  db.set_observer(report.obs());
  QueryRunResult run = db.run(sql, profile);
  db.set_observer(nullptr);
  report.record(query_id, profile.name, run.metrics);
  return run;
}

}  // namespace ysmart::bench
