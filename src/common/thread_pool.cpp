#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/env.h"

namespace ysmart {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0)
    threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  auto fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = std::max<std::size_t>(1, n / (std::size_t{size()} * 4 + 1));
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks == 1) {
    body(0, n);
    return;
  }

  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (std::size_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      const std::size_t begin = c * grain;
      body(begin, std::min(n, begin + grain));
    }
  };

  const std::size_t helpers = std::min<std::size_t>(chunks - 1, size());
  std::vector<std::future<void>> futs;
  futs.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i) futs.push_back(submit(drain));

  // The caller works too; even if it throws, the helper futures must be
  // drained before the captured references go out of scope.
  std::exception_ptr first;
  try {
    drain();
  } catch (...) {
    first = std::current_exception();
  }
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool([] {
    // env_positive_int rejects garbage/zero/negative values with a stderr
    // warning; 0 here selects the hardware-concurrency fallback.
    if (auto v = env_positive_int("YSMART_THREADS"))
      return static_cast<unsigned>(*v);
    return 0u;
  }());
  return pool;
}

}  // namespace ysmart
