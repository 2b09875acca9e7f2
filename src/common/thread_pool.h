// ThreadPool: a small fixed-size worker pool shared by the whole process.
//
// The MapReduce engine uses it to run map tasks and reduce partitions
// concurrently on the host. Host-thread parallelism is purely an
// execution-speed concern: all simulated quantities (bytes, records,
// modeled seconds) are computed from per-task results that are aggregated
// in a fixed order, and every random draw happens on the submitting
// thread, so results are bit-identical for any pool size (see DESIGN.md,
// "Execution concurrency vs. simulated time").
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ysmart {

class ThreadPool {
 public:
  /// `threads` = number of worker threads; 0 picks the hardware
  /// concurrency. A pool of size 1 still runs tasks on its single worker
  /// (parallel_for additionally runs chunks on the calling thread).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue one task. The future rethrows any exception the task threw.
  std::future<void> submit(std::function<void()> fn);

  /// Run `body(begin, end)` over contiguous chunks covering [0, n).
  /// `grain` is the chunk length (0 picks one sized for the pool). The
  /// calling thread participates in the work, so a busy or single-thread
  /// pool can never deadlock the caller. Chunks may run in any order and
  /// concurrently; the body must only touch disjoint state per index.
  /// Blocks until every chunk finished; rethrows the first exception.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Process-wide pool, sized from the YSMART_THREADS environment
  /// variable when set (else hardware concurrency). Malformed values
  /// (non-numeric, zero, negative) are rejected with a stderr warning and
  /// the hardware-concurrency fallback applies. Engines default to it.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ysmart
