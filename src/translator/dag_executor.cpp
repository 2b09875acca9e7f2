#include "translator/dag_executor.h"

#include <algorithm>
#include <set>

#include "cmf/common_job.h"
#include "common/error.h"
#include "common/strings.h"
#include "obs/obs.h"

namespace ysmart {

QueryRunResult run_translated(const TranslatedQuery& query, Engine& engine,
                              const TranslatorProfile& profile,
                              bool keep_intermediates) {
  QueryRunResult out;
  const std::string result_path = query.result_path();
  std::set<std::string> scratch_paths;

  // Group jobs into dependency waves: a job joins the wave once all its
  // inputs exist. Under serial submission (the default, matching the
  // paper's drivers) every wave has one job and wall time equals the sum;
  // with concurrent_job_submission a wave's elapsed time is its slowest
  // job (jobs still execute one-by-one in the simulator — only the
  // modeled timeline overlaps).
  std::set<std::string> available;
  for (const auto& p : engine.dfs().list()) available.insert(p);
  std::vector<std::size_t> pending(query.jobs.size());
  for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;

  bool any_failed = false;
  std::size_t wave_idx = 0;
  while (!pending.empty() && !any_failed) {
    std::vector<std::size_t> wave;
    for (std::size_t i : pending) {
      bool ready = true;
      for (const auto& in : query.jobs[i].input_files)
        if (!available.count(in.path)) ready = false;
      if (ready) {
        wave.push_back(i);
        if (!profile.concurrent_job_submission) break;  // serial: one job
      }
    }
    check(!wave.empty(), "translated query has a dependency cycle");

    // Jobs in one wave run concurrently on the modeled timeline: every
    // job in it starts at the wave's simulated start, and the wave ends
    // when its slowest job does; the observer places them so.
    obs::ScopedSpan wave_span(engine.obs(), strf("wave:%zu", wave_idx), "wave");
    obs::WaveRecord rec{static_cast<int>(wave_idx), wave.size(),
                        wave_span.id()};
    obs::observe(engine.obs(), obs::WavePoint::Start, rec);
    ++wave_idx;
    try {
      for (std::size_t i : wave) {
        const auto& job = query.jobs[i];
        MRJobSpec spec = build_common_job(job, profile, engine.dfs());
        JobMetrics m = engine.run(spec);
        rec.elapsed_s = std::max(rec.elapsed_s, m.total_time_s());
        any_failed |= m.failed;
        out.metrics.jobs.push_back(std::move(m));
        for (const auto& o : job.outputs) {
          available.insert(o.path);
          if (o.path != result_path) scratch_paths.insert(o.path);
        }
      }
    } catch (...) {
      // Publish the wave on every exit, as Database::run does its query,
      // so every job the observer recorded has its wave's record.
      obs::observe(engine.obs(), obs::WavePoint::Done, rec);
      throw;
    }
    out.metrics.wall_time_s += rec.elapsed_s;
    rec.aborts = any_failed;
    rec.pending_jobs = pending.size() - wave.size();
    obs::observe(engine.obs(), obs::WavePoint::Done, rec);
    std::vector<std::size_t> rest;
    for (std::size_t i : pending)
      if (std::find(wave.begin(), wave.end(), i) == wave.end())
        rest.push_back(i);
    pending = std::move(rest);
  }

  // A failed job (DNF) aborts the query: jobs still pending are never
  // scheduled and its outputs — present in the DFS only so standalone
  // metrics remain checkable — are not consumed as a result. This is
  // what the paper's DNF rows report (e.g. Pig on Q-CSA, Section VII).
  if (!any_failed) out.result = engine.dfs().file(result_path).table;
  if (!keep_intermediates) {
    for (const auto& p : scratch_paths)
      if (engine.dfs().exists(p)) engine.dfs().remove(p);
    if (engine.dfs().exists(result_path)) engine.dfs().remove(result_path);
  }
  return out;
}

}  // namespace ysmart
