#include "obs/plan_view.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/json.h"
#include "common/strings.h"
#include "mr/cluster.h"
#include "mr/metrics.h"
#include "plan/partition_key.h"
#include "stats/stats.h"
#include "storage/dfs.h"
#include "translator/jobspec.h"

namespace ysmart::obs {

const std::vector<std::string> kPlanMetrics = {
    "input_rows",    "input_bytes", "map_out_records", "shuffle_wire_bytes",
    "reduce_groups", "map_s",       "reduce_s",        "total_s"};

double q_error(double est, double act) {
  if (est <= 0 && act <= 0) return 1.0;
  if (est <= 0 || act <= 0) return std::max(est, act) + 1.0;
  return std::max(est / act, act / est);
}

namespace {

constexpr std::uint64_t kUnbounded = std::numeric_limits<std::uint64_t>::max();

std::uint64_t sat_from_double(double d) {
  if (!(d > 0)) return 0;
  if (d >= 1.8e19) return kUnbounded;
  return static_cast<std::uint64_t>(d);
}

struct PredFile {
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
};

double width_of(const PredFile& f) {
  return f.rows ? static_cast<double>(f.bytes) / static_cast<double>(f.rows)
                : 0.0;
}

bool same_map_work(const MapTaskWork& a, const MapTaskWork& b) {
  return a.input_bytes == b.input_bytes && a.input_records == b.input_records &&
         a.output_records == b.output_records &&
         a.output_bytes_raw == b.output_bytes_raw &&
         a.output_bytes_wire == b.output_bytes_wire &&
         a.local_read == b.local_read;
}

/// Counts and seconds are doubles in comparison rows; print integral
/// values without an exponent so the text report reads like EXPLAIN.
std::string fmt_value(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) return strf("%.0f", v);
  return strf("%.6g", v);
}

}  // namespace

// ---------------------------------------------------------------------------
// Prediction
// ---------------------------------------------------------------------------

QueryPrediction predict_query(const TranslatedQuery& q,
                              const TranslatorProfile& profile,
                              const StatsCatalog& stats, const Dfs& dfs,
                              const ClusterConfig& cfg,
                              const std::string& sql) {
  QueryPrediction out;
  out.sql = sql;
  out.profile = profile.name;
  out.concurrent_submission = profile.concurrent_job_submission;
  const CostModel cost(cfg);

  // Predicted outputs of earlier jobs, resolvable as later jobs' inputs
  // (jobs arrive in topological order).
  std::map<std::string, PredFile> produced;
  std::map<std::string, int> producer_wave;

  for (const auto& job : q.jobs) {
    JobPrediction jp;
    jp.name = job.name;
    jp.map_only = job.kind == TranslatedJob::Kind::MapOnly;
    const bool combine = job.kind == TranslatedJob::Kind::CombineAgg;
    if (!job.partition_key.empty())
      jp.partition_key = job.partition_key.to_string();
    const std::uint64_t groups_raw = stats.estimate_groups(job.partition_key);
    for (const auto& part : job.partition_key.parts)
      for (const auto& id : part)
        if (const TableStats* t = stats.find(id.table); t && t->sampled)
          jp.groups_sampled = true;

    // ---- resolve inputs ----
    struct FileInfo {
      PredFile f;
      bool estimated = false;
      const DfsFile* dfs_file = nullptr;
    };
    std::vector<FileInfo> files;
    int wave = 0;
    for (const auto& in : job.input_files) {
      FileInfo fi;
      if (auto it = produced.find(in.path); it != produced.end()) {
        fi.f = it->second;
        fi.estimated = true;
        wave = std::max(wave, producer_wave[in.path] + 1);
      } else if (dfs.exists(in.path)) {
        const DfsFile& df = dfs.file(in.path);
        fi.f.rows = df.table ? df.table->row_count() : 0;
        fi.f.bytes = df.total_bytes;
        fi.dfs_file = &df;
      } else {
        fi.estimated = true;  // unknown input: predicted empty
      }
      jp.input_rows += fi.f.rows;
      jp.input_bytes += fi.f.bytes;
      jp.input_estimated = jp.input_estimated || fi.estimated;
      files.push_back(fi);
    }
    jp.wave = wave;

    // One pair per record per emission reading the file; jobs lowered
    // without emissions (CombineAgg, scan-only) run an identity-shaped map.
    std::vector<std::uint64_t> emissions_per_file(files.size(), 0);
    for (const auto& e : job.emissions)
      if (e.input_file >= 0 &&
          static_cast<std::size_t>(e.input_file) < files.size())
        ++emissions_per_file[static_cast<std::size_t>(e.input_file)];
    if (job.emissions.empty())
      for (auto& c : emissions_per_file) c = 1;

    // ---- predicted map task list (engine block splitting mirrored) ----
    std::vector<MapTaskWork> works;
    std::uint64_t task_index = 0;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
      const FileInfo& f = files[fi];
      const std::uint64_t e_f = emissions_per_file[fi];
      auto add_task = [&](std::uint64_t rows, std::uint64_t bytes,
                          bool local) {
        MapTaskWork w;
        w.input_bytes = bytes;
        w.input_records = rows;
        std::uint64_t out_recs = rows * e_f;
        double out_pre = static_cast<double>(bytes) *
                         static_cast<double>(e_f);
        if (combine) {
          // Map-side partial aggregation collapses each task's output to
          // at most the predicted group count.
          out_recs = groups_raw == kUnbounded ? rows
                                              : std::min(rows, groups_raw);
          out_pre = static_cast<double>(out_recs) * width_of(f.f);
        }
        w.output_records = out_recs;
        w.output_bytes_raw =
            sat_from_double(out_pre * profile.intermediate_expansion);
        w.output_bytes_wire =
            cfg.compression.enabled
                ? static_cast<std::uint64_t>(
                      static_cast<double>(w.output_bytes_raw) *
                      cfg.compression.ratio)
                : w.output_bytes_raw;
        w.local_read = local;
        works.push_back(w);
        ++task_index;
      };
      if (f.dfs_file) {
        for (const auto& b : f.dfs_file->blocks) {
          const int node = static_cast<int>(
              task_index % static_cast<std::uint64_t>(cfg.worker_nodes));
          const bool local =
              std::find(b.replica_nodes.begin(), b.replica_nodes.end(),
                        node) != b.replica_nodes.end();
          add_task(b.row_count, b.bytes, local);
        }
      } else {
        const std::uint64_t bb = std::max<std::uint64_t>(1, dfs.block_bytes());
        const std::uint64_t nblocks =
            f.f.bytes == 0 ? 1 : (f.f.bytes + bb - 1) / bb;
        std::uint64_t rows_left = f.f.rows;
        std::uint64_t bytes_left = f.f.bytes;
        for (std::uint64_t b = 0; b < nblocks; ++b) {
          const std::uint64_t rem = nblocks - b;
          const std::uint64_t r = rows_left / rem;
          const std::uint64_t by = bytes_left / rem;
          add_task(r, by, /*local=*/true);  // placement unknown: assume local
          rows_left -= r;
          bytes_left -= by;
        }
      }
    }
    jp.map_tasks = works.size();
    for (const auto& w : works) {
      jp.map_output_records += w.output_records;
      jp.map_output_bytes_raw += w.output_bytes_raw;
      jp.map_output_bytes_wire += w.output_bytes_wire;
    }
    for (const auto& w : works) {
      bool found = false;
      for (auto& g : jp.map_work)
        if (same_map_work(g.work, w)) {
          ++g.count;
          found = true;
          break;
        }
      if (!found) jp.map_work.push_back(PredictedMapGroup{1, w});
    }

    jp.map_slots = cfg.total_map_slots();
    jp.reduce_slots = cfg.total_reduce_slots();
    jp.map_cpu_multiplier = profile.map_cpu_multiplier;
    jp.reduce_cpu_multiplier = profile.reduce_cpu_multiplier;
    jp.sched_delay_s =
        cfg.contention.enabled ? cfg.contention.mean_sched_delay_s : 0.0;
    {
      std::vector<double> times;
      times.reserve(works.size());
      for (const auto& g : jp.map_work) {
        const double t =
            cost.map_task_seconds(g.work, profile.map_cpu_multiplier);
        for (std::uint64_t i = 0; i < g.count; ++i) times.push_back(t);
      }
      jp.map_time_s =
          times.empty() ? 0.0 : CostModel::makespan(times, jp.map_slots);
    }

    // ---- per-stage output-cardinality estimates ----
    std::map<int, std::pair<std::uint64_t, double>> consumer_rows;
    if (job.emissions.empty()) {
      for (std::size_t fi = 0; fi < files.size(); ++fi)
        consumer_rows[static_cast<int>(fi)] = {files[fi].f.rows,
                                               width_of(files[fi].f)};
    } else {
      for (const auto& e : job.emissions)
        for (const auto& c : e.consumers)
          if (e.input_file >= 0 &&
              static_cast<std::size_t>(e.input_file) < files.size())
            consumer_rows[c.consumer_id] = {
                files[static_cast<std::size_t>(e.input_file)].f.rows,
                width_of(files[static_cast<std::size_t>(e.input_file)].f)};
    }
    std::vector<std::pair<std::uint64_t, double>> stage_rows(
        job.stages.size(), {0, 0.0});
    auto in_of = [&](const Stage::In& in) -> std::pair<std::uint64_t, double> {
      if (in.from_consumer) {
        auto it = consumer_rows.find(in.index);
        return it == consumer_rows.end()
                   ? std::pair<std::uint64_t, double>{0, 0.0}
                   : it->second;
      }
      if (in.index >= 0 && static_cast<std::size_t>(in.index) < stage_rows.size())
        return stage_rows[static_cast<std::size_t>(in.index)];
      return {0, 0.0};
    };
    for (std::size_t si = 0; si < job.stages.size(); ++si) {
      const Stage& st = job.stages[si];
      const PlanNode* op = st.op;
      if (!op || st.inputs.empty()) continue;
      switch (op->kind) {
        case PlanKind::Scan:
        case PlanKind::SP:
        case PlanKind::Sort:
          stage_rows[si] = in_of(st.inputs[0]);
          break;
        case PlanKind::Agg: {
          const auto [r, w] = in_of(st.inputs[0]);
          const std::uint64_t g =
              stats.estimate_groups(agg_full_partition_key(*op));
          stage_rows[si] = {g == kUnbounded ? r : std::min(r, g), w};
          break;
        }
        case PlanKind::Join: {
          const auto [l, wl] = in_of(st.inputs[0]);
          const auto [r, wr] =
              in_of(st.inputs.size() > 1 ? st.inputs[1] : st.inputs[0]);
          const std::uint64_t g =
              stats.estimate_groups(join_partition_key(*op));
          std::uint64_t est;
          if (g == kUnbounded || g == 0) {
            est = std::max(l, r);  // unknown key NDV: containment fallback
          } else {
            est = sat_from_double(static_cast<double>(l) *
                                  static_cast<double>(r) /
                                  static_cast<double>(g));
          }
          stage_rows[si] = {est, wl + wr};
          break;
        }
      }
    }
    for (std::size_t oi = 0; oi < job.outputs.size(); ++oi) {
      for (std::size_t si = 0; si < job.stages.size(); ++si) {
        if (job.stages[si].output_index != static_cast<int>(oi)) continue;
        const auto [r, w] = stage_rows[si];
        const std::uint64_t bytes =
            sat_from_double(static_cast<double>(r) * w);
        jp.output_rows += r;
        jp.output_bytes += bytes;
        produced[job.outputs[oi].path] = PredFile{r, bytes};
        producer_wave[job.outputs[oi].path] = jp.wave;
      }
    }

    // ---- reduce phase (uniform per-real-task work) ----
    if (!jp.map_only) {
      jp.target_reduce_tasks =
          job.num_reduce_tasks > 0
              ? static_cast<std::uint64_t>(job.num_reduce_tasks)
              : static_cast<std::uint64_t>(cfg.total_reduce_slots());
      jp.reduce_records = jp.map_output_records;
      jp.groups_unbounded = groups_raw == kUnbounded;
      jp.reduce_groups = std::min(groups_raw, jp.reduce_records);
      ReduceTaskWork rw;
      const std::uint64_t t = std::max<std::uint64_t>(1, jp.target_reduce_tasks);
      rw.shuffle_bytes_raw = jp.map_output_bytes_raw / t;
      rw.shuffle_bytes_wire = jp.map_output_bytes_wire / t;
      rw.input_records = jp.reduce_records / t;
      rw.output_records = jp.output_rows / t;
      rw.output_bytes = jp.output_bytes / t;
      jp.reduce_work.push_back(PredictedReduceGroup{t, rw});
      const double ts =
          cost.reduce_task_seconds(rw, profile.reduce_cpu_multiplier);
      jp.reduce_time_s = CostModel::makespan(
          std::vector<double>(static_cast<std::size_t>(t), ts),
          jp.reduce_slots);
    }

    out.jobs.push_back(std::move(jp));
  }

  int waves = 0;
  for (const auto& j : out.jobs) waves = std::max(waves, j.wave + 1);
  out.waves = waves;
  if (out.concurrent_submission && waves > 0) {
    std::vector<double> wave_max(static_cast<std::size_t>(waves), 0.0);
    for (const auto& j : out.jobs)
      wave_max[static_cast<std::size_t>(j.wave)] =
          std::max(wave_max[static_cast<std::size_t>(j.wave)],
                   j.total_time_s());
    for (double w : wave_max) out.wall_time_s += w;
  } else {
    out.wall_time_s = out.total_time_s();
  }
  return out;
}

double QueryPrediction::total_time_s() const {
  double t = 0;
  for (const auto& j : jobs) t += j.total_time_s();
  return t;
}

std::uint64_t QueryPrediction::shuffle_bytes_wire() const {
  std::uint64_t b = 0;
  for (const auto& j : jobs)
    if (!j.map_only) b += j.map_output_bytes_wire;
  return b;
}

void QueryPrediction::to_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("profile", std::string_view(profile));
  w.kv("sql", std::string_view(sql));
  w.kv("concurrent_submission", concurrent_submission);
  w.kv("waves", waves);
  w.kv("wall_s", wall_time_s);
  w.kv("total_s", total_time_s());
  w.kv("shuffle_wire", shuffle_bytes_wire());
  w.key("jobs").begin_array();
  for (const auto& j : jobs) {
    w.begin_object();
    w.kv("name", std::string_view(j.name));
    w.kv("map_only", j.map_only);
    w.kv("wave", j.wave);
    w.kv("partition_key", std::string_view(j.partition_key));
    w.kv("input_rows", j.input_rows);
    w.kv("input_bytes", j.input_bytes);
    w.kv("input_estimated", j.input_estimated);
    w.kv("map_tasks", j.map_tasks);
    w.kv("map_out_records", j.map_output_records);
    w.kv("map_out_bytes_raw", j.map_output_bytes_raw);
    w.kv("map_out_bytes_wire", j.map_output_bytes_wire);
    w.kv("reduce_records", j.reduce_records);
    w.kv("reduce_groups", j.reduce_groups);
    w.kv("groups_unbounded", j.groups_unbounded);
    w.kv("groups_sampled", j.groups_sampled);
    w.kv("target_reduce_tasks", j.target_reduce_tasks);
    w.kv("map_slots", j.map_slots);
    w.kv("reduce_slots", j.reduce_slots);
    w.kv("output_rows", j.output_rows);
    w.kv("output_bytes", j.output_bytes);
    w.kv("sched_s", j.sched_delay_s);
    w.kv("map_s", j.map_time_s);
    w.kv("reduce_s", j.reduce_time_s);
    w.kv("total_s", j.total_time_s());
    w.key("map_work").begin_array();
    for (const auto& g : j.map_work) {
      w.begin_object();
      w.kv("count", g.count);
      w.kv("input_bytes", g.work.input_bytes);
      w.kv("input_records", g.work.input_records);
      w.kv("output_records", g.work.output_records);
      w.kv("output_bytes_raw", g.work.output_bytes_raw);
      w.kv("output_bytes_wire", g.work.output_bytes_wire);
      w.kv("local_read", g.work.local_read);
      w.end_object();
    }
    w.end_array();
    w.key("reduce_work").begin_array();
    for (const auto& g : j.reduce_work) {
      w.begin_object();
      w.kv("count", g.count);
      w.kv("shuffle_bytes_raw", g.work.shuffle_bytes_raw);
      w.kv("shuffle_bytes_wire", g.work.shuffle_bytes_wire);
      w.kv("input_records", g.work.input_records);
      w.kv("output_records", g.work.output_records);
      w.kv("output_bytes", g.work.output_bytes);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string QueryPrediction::json() const {
  JsonWriter w;
  to_json(w);
  return w.take();
}

// ---------------------------------------------------------------------------
// Join against actuals
// ---------------------------------------------------------------------------

PlanReport join_plan_actuals(const QueryPrediction& pred,
                             const QueryTaskSamples& samples,
                             const QueryMetrics& metrics) {
  PlanReport rep;
  rep.prediction = pred;
  rep.executed = !metrics.jobs.empty();
  rep.actual_jobs = static_cast<int>(metrics.jobs.size());
  int max_wave = -1;
  for (const auto& sj : samples.jobs) max_wave = std::max(max_wave, sj.wave);
  rep.actual_waves =
      max_wave >= 0 ? max_wave + 1 : static_cast<int>(metrics.jobs.size());
  rep.actual_wall_s = metrics.wall_time_s;
  for (const auto& j : metrics.jobs)
    rep.actual_shuffle_wire += j.shuffle_bytes_wire;

  const std::size_t n = kPlanMetrics.size();
  std::vector<double> est_sum(n, 0.0), act_sum(n, 0.0);

  for (const auto& jp : pred.jobs) {
    JobComparison jc;
    jc.name = jp.name;
    jc.map_only = jp.map_only;
    jc.wave_pred = jp.wave;
    jc.partition_key = jp.partition_key;

    const JobMetrics* m = nullptr;
    for (const auto& jm : metrics.jobs)
      if (jm.job_name == jp.name) {
        m = &jm;
        break;
      }
    const JobTaskSamples* s = nullptr;
    for (const auto& sj : samples.jobs)
      if (sj.job_name == jp.name) {
        s = &sj;
        break;
      }
    jc.wave_act = s ? s->wave : -1;
    std::uint64_t act_groups = 0;
    if (s)
      for (const auto& t : s->reduce_tasks) act_groups += t.key_groups;

    const double est[] = {
        static_cast<double>(jp.input_rows),
        static_cast<double>(jp.input_bytes),
        static_cast<double>(jp.map_output_records),
        jp.map_only ? 0.0 : static_cast<double>(jp.map_output_bytes_wire),
        jp.map_only ? 0.0 : static_cast<double>(jp.reduce_groups),
        jp.map_time_s,
        jp.reduce_time_s,
        jp.total_time_s()};
    const double act[] = {
        m ? static_cast<double>(m->map.input_records) : 0.0,
        m ? static_cast<double>(m->map.input_bytes) : 0.0,
        m ? static_cast<double>(m->map.output_records) : 0.0,
        m ? static_cast<double>(m->shuffle_bytes_wire) : 0.0,
        static_cast<double>(act_groups),
        m ? m->map_time_s : 0.0,
        m ? m->reduce_time_s : 0.0,
        m ? m->total_time_s() : 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      ComparisonRow row;
      row.metric = kPlanMetrics[i];
      row.est = est[i];
      row.act = act[i];
      row.q = q_error(est[i], act[i]);
      if (kPlanMetrics[i] == "reduce_groups") {
        row.sampled = jp.groups_sampled;
        row.unbounded = jp.groups_unbounded;
      }
      jc.max_q = std::max(jc.max_q, row.q);
      est_sum[i] += est[i];
      act_sum[i] += act[i];
      jc.rows.push_back(std::move(row));
    }
    rep.max_q = std::max(rep.max_q, jc.max_q);
    rep.jobs.push_back(std::move(jc));
  }

  for (std::size_t i = 0; i < n; ++i) {
    ComparisonRow row;
    row.metric = kPlanMetrics[i];
    row.est = est_sum[i];
    row.act = act_sum[i];
    row.q = q_error(est_sum[i], act_sum[i]);
    rep.max_q = std::max(rep.max_q, row.q);
    rep.query.push_back(std::move(row));
  }

  for (const auto& jc : rep.jobs)
    for (const auto& row : jc.rows)
      rep.ranked.push_back(RankedMiss{jc.name, row.metric, row.est, row.act,
                                      row.q});
  std::sort(rep.ranked.begin(), rep.ranked.end(),
            [](const RankedMiss& a, const RankedMiss& b) {
              if (a.q != b.q) return a.q > b.q;
              if (a.job != b.job) return a.job < b.job;
              return a.metric < b.metric;
            });
  if (rep.ranked.size() > 32) rep.ranked.resize(32);
  return rep;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string PlanReport::text() const {
  std::string s = strf("== plan view (%s) ==\n", prediction.profile.c_str());
  s += strf("predicted: %zu job(s), %d wave(s), %.3f sim s",
            prediction.jobs.size(), prediction.waves, prediction.wall_time_s);
  if (executed) {
    s += strf("  |  actual: %d job(s), %d wave(s), %.3f sim s  (q %.2f)\n",
              actual_jobs, actual_waves, actual_wall_s,
              q_error(prediction.wall_time_s, actual_wall_s));
  } else {
    s += "  |  not executed\n";
  }
  for (const auto& jc : jobs) {
    s += strf("job %s  (wave %d", jc.name.c_str(), jc.wave_pred);
    if (executed && jc.wave_act != jc.wave_pred && jc.wave_act >= 0)
      s += strf(" pred / %d act", jc.wave_act);
    if (!jc.partition_key.empty())
      s += strf(", pk %s", jc.partition_key.c_str());
    if (jc.map_only) s += ", map-only";
    s += ")\n";
    for (const auto& row : jc.rows) {
      if (jc.map_only &&
          (row.metric == "reduce_groups" || row.metric == "reduce_s" ||
           row.metric == "shuffle_wire_bytes"))
        continue;  // meaningless for map-only jobs
      s += strf("  %-20s est %-14s act %-14s q %.2f%s%s\n", row.metric.c_str(),
                fmt_value(row.est).c_str(), fmt_value(row.act).c_str(), row.q,
                row.sampled ? "  [sampled]" : "",
                row.unbounded ? "  [unbounded]" : "");
    }
  }
  s += "== mis-estimates (q-error ranked) ==\n";
  std::size_t shown = 0;
  for (const auto& r : ranked) {
    if (r.q <= 1.0 || shown >= 8) break;
    ++shown;
    s += strf("  %zu. %s %s  est %s  act %s  q %.2f\n", shown, r.job.c_str(),
              r.metric.c_str(), fmt_value(r.est).c_str(),
              fmt_value(r.act).c_str(), r.q);
  }
  if (shown == 0) s += "  (none)\n";
  return s;
}

namespace {

void row_to_json(JsonWriter& w, const ComparisonRow& row) {
  w.begin_object();
  w.kv("metric", std::string_view(row.metric));
  w.kv("est", row.est);
  w.kv("act", row.act);
  w.kv("q", row.q);
  w.kv("sampled", row.sampled);
  w.kv("unbounded", row.unbounded);
  w.end_object();
}

}  // namespace

void PlanReport::to_json(JsonWriter& w, bool full) const {
  w.begin_object();
  w.kv("profile", std::string_view(prediction.profile));
  w.kv("sql", std::string_view(prediction.sql));
  w.kv("executed", executed);
  w.kv("max_q", max_q);
  w.key("predicted").begin_object();
  w.kv("jobs", static_cast<std::uint64_t>(prediction.jobs.size()));
  w.kv("waves", prediction.waves);
  w.kv("wall_s", prediction.wall_time_s);
  w.kv("shuffle_wire", prediction.shuffle_bytes_wire());
  w.end_object();
  w.key("actual").begin_object();
  w.kv("jobs", actual_jobs);
  w.kv("waves", actual_waves);
  w.kv("wall_s", actual_wall_s);
  w.kv("shuffle_wire", actual_shuffle_wire);
  w.end_object();
  w.key("query").begin_array();
  for (const auto& row : query) row_to_json(w, row);
  w.end_array();
  w.key("jobs").begin_array();
  for (const auto& jc : jobs) {
    w.begin_object();
    w.kv("name", std::string_view(jc.name));
    w.kv("map_only", jc.map_only);
    w.kv("wave_pred", jc.wave_pred);
    w.kv("wave_act", jc.wave_act);
    w.kv("partition_key", std::string_view(jc.partition_key));
    w.kv("max_q", jc.max_q);
    w.key("rows").begin_array();
    for (const auto& row : jc.rows) row_to_json(w, row);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("ranked").begin_array();
  for (const auto& r : ranked) {
    w.begin_object();
    w.kv("job", std::string_view(r.job));
    w.kv("metric", std::string_view(r.metric));
    w.kv("est", r.est);
    w.kv("act", r.act);
    w.kv("q", r.q);
    w.end_object();
  }
  w.end_array();
  if (full) {
    w.key("prediction");
    prediction.to_json(w);
  }
  w.end_object();
}

std::string PlanReport::json(bool full) const {
  JsonWriter w;
  to_json(w, full);
  return w.take();
}

}  // namespace ysmart::obs
