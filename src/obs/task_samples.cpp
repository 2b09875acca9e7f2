#include "obs/task_samples.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace ysmart::obs {

std::vector<QueryWave> query_waves(const QueryTaskSamples& query) {
  std::vector<QueryWave> waves;
  double start = 0;
  for (std::size_t i = 0; i < query.jobs.size();) {
    const JobTaskSamples& job = query.jobs[i];
    QueryWave w{job.wave, i, i + 1, job.total_time_s(), start};
    if (job.wave < 0) {
      w.index = static_cast<int>(i);
    } else {
      while (w.end < query.jobs.size() && query.jobs[w.end].wave == job.wave)
        ++w.end;
      const auto rec = std::find_if(
          query.waves.begin(), query.waves.end(),
          [&](const WaveSample& r) { return r.index == job.wave; });
      if (rec == query.waves.end())
        throw InternalError(strf("job %s names wave %d, which has no record",
                                 job.job_name.c_str(), job.wave));
      w.elapsed_s = rec->elapsed_s;
    }
    start += w.elapsed_s;
    waves.push_back(w);
    i = w.end;
  }
  return waves;
}

void TaskSampleStore::begin_query() {
  std::lock_guard<std::mutex> lock(mu_);
  queries_.emplace_back();
  group_open_ = true;
  current_wave_ = -1;
}

void TaskSampleStore::end_query() {
  std::lock_guard<std::mutex> lock(mu_);
  group_open_ = false;
  current_wave_ = -1;
}

void TaskSampleStore::set_current_wave(int wave) {
  std::lock_guard<std::mutex> lock(mu_);
  current_wave_ = wave;
}

QueryTaskSamples& TaskSampleStore::open_group() {
  if (!group_open_) {
    queries_.emplace_back();
    group_open_ = true;
  }
  return queries_.back();
}

void TaskSampleStore::record_job(JobTaskSamples samples) {
  std::lock_guard<std::mutex> lock(mu_);
  samples.wave = current_wave_;
  open_group().jobs.push_back(std::move(samples));
}

void TaskSampleStore::record_wave(WaveSample wave) {
  std::lock_guard<std::mutex> lock(mu_);
  open_group().waves.push_back(wave);
}

std::size_t TaskSampleStore::query_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.size();
}

std::size_t TaskSampleStore::total_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& q : queries_) n += q.jobs.size();
  return n;
}

QueryTaskSamples TaskSampleStore::query(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.at(index);
}

QueryTaskSamples TaskSampleStore::last_query() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.empty() ? QueryTaskSamples{} : queries_.back();
}

void TaskSampleStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  queries_.clear();
  group_open_ = false;
  current_wave_ = -1;
}

}  // namespace ysmart::obs
