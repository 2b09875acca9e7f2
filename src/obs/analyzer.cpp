#include "obs/analyzer.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"
#include "common/strings.h"

namespace ysmart::obs {

namespace {

constexpr double kStragglerThreshold = 2.0;  // task > threshold * median
constexpr std::size_t kTopPartitions = 3;    // heaviest reduce partitions
constexpr std::size_t kTopKeys = 3;          // hot keys reported per job
/// A hot key enters the diagnosis when it carries at least this share of
/// its job's reduce records (and more than one key group exists).
constexpr double kHotKeyMinShare = 0.10;
/// A partition enters the diagnosis when it holds at least this share of
/// its job's shuffle bytes and at least twice the fair share.
constexpr double kPartitionMinShare = 0.25;

/// Distribution of one phase's per-task sim seconds; `stragglers` lists
/// the tasks above kStragglerThreshold x the lower median (phases of at
/// least two tasks).
PhaseSkewStats phase_stats(const std::vector<TaskSample>& tasks) {
  PhaseSkewStats st;
  st.tasks = tasks.size();
  if (tasks.empty()) return st;
  std::vector<double> times;
  times.reserve(tasks.size());
  for (const auto& t : tasks) {
    times.push_back(t.sim_seconds);
    st.total_s += t.sim_seconds;
    st.max_s = std::max(st.max_s, t.sim_seconds);
  }
  st.mean_s = st.total_s / static_cast<double>(times.size());
  std::vector<double> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  st.median_s = sorted[(sorted.size() - 1) / 2];  // lower median
  double var = 0;
  for (double t : times) var += (t - st.mean_s) * (t - st.mean_s);
  var /= static_cast<double>(times.size());
  st.cv = st.mean_s > 0 ? std::sqrt(var) / st.mean_s : 0.0;
  if (times.size() >= 2 && st.median_s > 0)
    for (std::size_t i = 0; i < times.size(); ++i)
      if (times[i] > kStragglerThreshold * st.median_s)
        st.stragglers.push_back(static_cast<int>(i));
  return st;
}

std::string render_key(const JobAnalysis& job, const std::string& key) {
  if (job.key_columns.empty()) return key;
  std::string cols;
  for (const auto& c : job.key_columns) {
    if (!cols.empty()) cols += ",";
    cols += c;
  }
  return cols + "=" + key;
}

std::string fmt_mb(std::uint64_t bytes) {
  return strf("%.1f MB", static_cast<double>(bytes) / 1048576.0);
}

void phase_json(JsonWriter& w, const PhaseSkewStats& st) {
  w.begin_object();
  w.kv("tasks", static_cast<std::uint64_t>(st.tasks));
  w.kv("total_s", st.total_s);
  w.kv("max_s", st.max_s);
  w.kv("median_s", st.median_s);
  w.kv("mean_s", st.mean_s);
  w.kv("cv", st.cv);
  w.kv("stragglers", static_cast<std::uint64_t>(st.stragglers.size()));
  w.end_object();
}

}  // namespace

AnalyzerReport analyze_query(const QueryTaskSamples& query) {
  AnalyzerReport rep;

  // ---- per-job statistics ----
  for (const auto& js : query.jobs) {
    JobAnalysis ja;
    ja.name = js.job_name;
    ja.wave = js.wave;
    ja.map_only = js.map_only;
    ja.failed = js.failed;
    ja.sched_delay_s = js.sched_delay_s;
    ja.map_time_s = js.map_time_s;
    ja.reduce_time_s = js.reduce_time_s;
    ja.total_s = js.total_time_s();
    ja.target_reduce_tasks = js.target_reduce_tasks;
    ja.key_columns = js.key_columns;
    ja.map = phase_stats(js.map_tasks);
    ja.reduce = phase_stats(js.reduce_tasks);

    std::uint64_t job_shuffle = 0;
    for (const auto& t : js.reduce_tasks) {
      job_shuffle += t.shuffle_bytes_raw;
      ja.reduce_records += t.input_records;
    }
    // Heaviest partitions by raw shuffle bytes; ties by partition index.
    // Partitions that received no data are never "heavy" — skip them so
    // jobs hashing into fewer than top_partitions non-empty partitions
    // don't pad the report with zeros.
    std::vector<const TaskSample*> parts;
    for (const auto& t : js.reduce_tasks) {
      if (t.shuffle_bytes_raw == 0 && t.input_records == 0) continue;
      parts.push_back(&t);
    }
    std::stable_sort(parts.begin(), parts.end(),
                     [](const TaskSample* a, const TaskSample* b) {
                       return a->shuffle_bytes_raw > b->shuffle_bytes_raw;
                     });
    const std::size_t k = std::min(parts.size(), kTopPartitions);
    for (std::size_t i = 0; i < k; ++i) {
      const TaskSample& t = *parts[i];
      HeavyPartition hp;
      hp.partition = t.index;
      hp.sim_seconds = t.sim_seconds;
      hp.shuffle_bytes_raw = t.shuffle_bytes_raw;
      hp.shuffle_share = job_shuffle > 0
                             ? static_cast<double>(t.shuffle_bytes_raw) /
                                   static_cast<double>(job_shuffle)
                             : 0.0;
      hp.key_groups = t.key_groups;
      hp.records = t.input_records;
      hp.tag_records = t.tag_records;
      ja.top_partitions.push_back(std::move(hp));
    }
    ja.hot_keys = js.hot_keys.top(kTopKeys);
    rep.jobs.push_back(std::move(ja));
  }

  // ---- critical path over dependency waves ----
  // Each wave's elapsed time is the executor's record; its critical job
  // is the first one whose total reaches it. The critical path is the
  // cluster view's makespan: the same records summed in wave order.
  rep.cluster = build_cluster_view(query);
  rep.critical_path_s = rep.cluster.makespan_s;
  for (const QueryWave& w : query_waves(query)) {
    WaveAnalysis wa{w.index, w.elapsed_s, -1, static_cast<int>(w.end - w.first)};
    for (std::size_t j = w.first; j < w.end; ++j) {
      JobAnalysis& ja = rep.jobs[j];
      ja.slack_s = w.elapsed_s - ja.total_s;
      if (wa.critical_job < 0 && ja.total_s == w.elapsed_s) {
        wa.critical_job = static_cast<int>(j);
        ja.on_critical_path = true;
      }
    }
    rep.waves.push_back(wa);
  }
  for (auto& ja : rep.jobs) {
    rep.serial_total_s += ja.total_s;
    ja.critical_share =
        rep.critical_path_s > 0 ? ja.total_s / rep.critical_path_s : 0.0;
  }

  // ---- diagnosis ----
  // 1. The dominant phase on the critical path.
  {
    const JobAnalysis* worst = nullptr;
    const char* worst_phase = "";
    double worst_s = 0;
    for (const auto& wa : rep.waves) {
      if (wa.critical_job < 0) continue;
      const JobAnalysis& ja = rep.jobs[static_cast<std::size_t>(wa.critical_job)];
      const std::pair<const char*, double> phases[] = {
          {"map", ja.map_time_s},
          {"reduce", ja.reduce_time_s},
          {"sched", ja.sched_delay_s}};
      for (const auto& [name, secs] : phases)
        if (secs > worst_s) {
          worst_s = secs;
          worst_phase = name;
          worst = &ja;
        }
    }
    if (worst && rep.critical_path_s > 0)
      rep.diagnosis.push_back(
          strf("job %s %s is %.0f%% of the critical path (%.1fs of %.1fs)",
               worst->name.c_str(), worst_phase,
               100.0 * worst_s / rep.critical_path_s, worst_s,
               rep.critical_path_s));
  }
  // 2. Shuffle concentration in one partition.
  for (const auto& ja : rep.jobs) {
    if (ja.top_partitions.empty()) continue;
    const HeavyPartition& hp = ja.top_partitions.front();
    const double fair = ja.reduce.tasks > 0
                            ? 1.0 / static_cast<double>(ja.reduce.tasks)
                            : 0.0;
    if (ja.reduce.tasks >= 2 && hp.shuffle_share >= kPartitionMinShare &&
        hp.shuffle_share >= 2.0 * fair)
      rep.diagnosis.push_back(strf(
          "job %s: partition %d holds %.0f%% of shuffle bytes (%s, %llu key "
          "groups)",
          ja.name.c_str(), hp.partition, 100.0 * hp.shuffle_share,
          fmt_mb(hp.shuffle_bytes_raw).c_str(),
          static_cast<unsigned long long>(hp.key_groups)));
  }
  // 3. Hot keys.
  for (const auto& ja : rep.jobs) {
    if (ja.hot_keys.empty() || ja.reduce_records == 0) continue;
    std::uint64_t groups = 0;
    for (const auto& hp : ja.top_partitions) groups += hp.key_groups;
    const SpaceSaving::Entry& top = ja.hot_keys.front();
    const double share = static_cast<double>(top.count) /
                         static_cast<double>(ja.reduce_records);
    if (share >= kHotKeyMinShare && groups != 1)
      rep.diagnosis.push_back(
          strf("job %s: hot key '%s' carries ~%.0f%% of reduce records "
               "(%llu of %llu)",
               ja.name.c_str(), render_key(ja, top.key).c_str(), 100.0 * share,
               static_cast<unsigned long long>(top.count),
               static_cast<unsigned long long>(ja.reduce_records)));
  }
  // 4. Stragglers.
  for (const auto& ja : rep.jobs) {
    const std::pair<const char*, const PhaseSkewStats*> phases[] = {
        {"map", &ja.map}, {"reduce", &ja.reduce}};
    for (const auto& [name, st] : phases)
      if (!st->stragglers.empty())
        rep.diagnosis.push_back(
            strf("job %s %s: %zu straggler task(s), slowest %.1fx the median",
                 ja.name.c_str(), name, st->stragglers.size(),
                 st->median_s > 0 ? st->max_s / st->median_s : 0.0));
  }
  if (rep.diagnosis.empty())
    rep.diagnosis.push_back(
        "no significant skew, stragglers or hot keys detected");

  return rep;
}

std::string AnalyzerReport::text() const {
  std::string out = "== query doctor ==\n";
  out += strf("critical path: %.1fs across %zu wave(s); serial job total "
              "%.1fs\n",
              critical_path_s, waves.size(), serial_total_s);
  for (const auto& wa : waves) {
    out += strf("wave %d: elapsed %.1fs (%d job%s)\n", wa.wave, wa.elapsed_s,
                wa.job_count, wa.job_count == 1 ? "" : "s");
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const JobAnalysis& ja = jobs[j];
      // Standalone jobs (wave -1) occupy a synthetic wave == job index.
      const bool in_wave = ja.wave >= 0 ? ja.wave == wa.wave
                                        : wa.wave == static_cast<int>(j);
      if (!in_wave) continue;
      out += strf("  job %-24s total %8.1fs = sched %.1fs + map %.1fs + "
                  "reduce %.1fs  slack %.1fs%s%s\n",
                  ja.name.c_str(), ja.total_s, ja.sched_delay_s, ja.map_time_s,
                  ja.reduce_time_s, ja.slack_s,
                  ja.on_critical_path ? "  [critical]" : "",
                  ja.failed ? "  FAILED" : "");
      out += strf("    map    %zu task(s): total %.1fs max %.3fs median "
                  "%.3fs cv %.2f%s\n",
                  ja.map.tasks, ja.map.total_s, ja.map.max_s, ja.map.median_s,
                  ja.map.cv,
                  ja.map.stragglers.empty()
                      ? ""
                      : strf("  stragglers: %zu", ja.map.stragglers.size())
                            .c_str());
      if (ja.map_only) {
        out += "    reduce (map-only job: output reported under map)\n";
        continue;
      }
      out += strf("    reduce %zu partition(s) (%llu modeled tasks): total "
                  "%.1fs max %.3fs median %.3fs cv %.2f%s\n",
                  ja.reduce.tasks,
                  static_cast<unsigned long long>(ja.target_reduce_tasks),
                  ja.reduce.total_s, ja.reduce.max_s, ja.reduce.median_s,
                  ja.reduce.cv,
                  ja.reduce.stragglers.empty()
                      ? ""
                      : strf("  stragglers: %zu", ja.reduce.stragglers.size())
                            .c_str());
      if (!ja.top_partitions.empty()) {
        out += "    heaviest reduce partitions (by shuffle bytes):\n";
        for (const auto& hp : ja.top_partitions) {
          out += strf("      #%d: %.1f%% of shuffle (%s), %llu key groups, "
                      "%llu records, sim %.3fs",
                      hp.partition, 100.0 * hp.shuffle_share,
                      fmt_mb(hp.shuffle_bytes_raw).c_str(),
                      static_cast<unsigned long long>(hp.key_groups),
                      static_cast<unsigned long long>(hp.records),
                      hp.sim_seconds);
          if (!hp.tag_records.empty()) {
            out += ", tags [";
            for (std::size_t t = 0; t < hp.tag_records.size(); ++t)
              out += strf("%s%zu:%llu", t ? " " : "", t,
                          static_cast<unsigned long long>(hp.tag_records[t]));
            out += "]";
          }
          out += "\n";
        }
      }
      if (!ja.hot_keys.empty()) {
        out += "    hot keys:";
        for (const auto& e : ja.hot_keys)
          out += strf(" '%s'~%llu(err %llu)", render_key(ja, e.key).c_str(),
                      static_cast<unsigned long long>(e.count),
                      static_cast<unsigned long long>(e.error));
        out += "\n";
      }
    }
  }
  out += "diagnosis:\n";
  for (const auto& d : diagnosis) out += "  - " + d + "\n";
  out += cluster.text();
  return out;
}

void AnalyzerReport::to_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("critical_path_s", critical_path_s);
  w.kv("serial_total_s", serial_total_s);
  w.key("waves").begin_array();
  for (const auto& wa : waves) {
    w.begin_object();
    w.kv("wave", wa.wave);
    w.kv("elapsed_s", wa.elapsed_s);
    w.kv("jobs", wa.job_count);
    w.kv("critical_job",
         std::string_view(wa.critical_job >= 0
                              ? jobs[static_cast<std::size_t>(wa.critical_job)]
                                    .name
                              : std::string()));
    w.end_object();
  }
  w.end_array();
  w.key("jobs").begin_array();
  for (const auto& ja : jobs) {
    w.begin_object();
    w.kv("name", std::string_view(ja.name));
    w.kv("wave", ja.wave);
    w.kv("map_only", ja.map_only);
    w.kv("failed", ja.failed);
    w.kv("total_s", ja.total_s);
    w.kv("sched_s", ja.sched_delay_s);
    w.kv("map_s", ja.map_time_s);
    w.kv("reduce_s", ja.reduce_time_s);
    w.kv("slack_s", ja.slack_s);
    w.kv("on_critical_path", ja.on_critical_path);
    w.kv("critical_share", ja.critical_share);
    w.kv("target_reduce_tasks", ja.target_reduce_tasks);
    w.key("map");
    phase_json(w, ja.map);
    w.key("reduce");
    phase_json(w, ja.reduce);
    w.key("top_partitions").begin_array();
    for (const auto& hp : ja.top_partitions) {
      w.begin_object();
      w.kv("partition", hp.partition);
      w.kv("sim_s", hp.sim_seconds);
      w.kv("shuffle_bytes_raw", hp.shuffle_bytes_raw);
      w.kv("shuffle_share", hp.shuffle_share);
      w.kv("key_groups", hp.key_groups);
      w.kv("records", hp.records);
      w.key("tag_records").begin_array();
      for (std::uint64_t t : hp.tag_records) w.value(t);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("hot_keys").begin_array();
    for (const auto& e : ja.hot_keys) {
      w.begin_object();
      w.kv("key", std::string_view(render_key(ja, e.key)));
      w.kv("count", e.count);
      w.kv("error", e.error);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("diagnosis").begin_array();
  for (const auto& d : diagnosis) w.value(std::string_view(d));
  w.end_array();
  w.key("cluster");
  cluster.to_json(w, /*full=*/false);
  w.end_object();
}

std::string AnalyzerReport::json() const {
  JsonWriter w;
  to_json(w);
  return w.take();
}

}  // namespace ysmart::obs
