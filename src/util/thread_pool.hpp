// Fixed-size thread pool for the three layers that run in parallel:
// differential-fuzz campaigns (`parallel_for` over case indices), soak
// chunks (`parallel_for` over session chunks) and serve jobs (`submit`,
// one whole job per task).
//
// Deliberately work-stealing-free: each unit of work (a fuzz case, a
// chunk of soak sessions, a serve job) is coarse enough that a shared
// ticket counter with static worker count beats a deque-per-worker
// scheme in both code size and contention. Workers are std::jthreads;
// shutdown is cooperative through their std::stop_token, so a pool can
// be destroyed with jobs still queued and nothing blocks forever.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

namespace sage::util {

class ThreadPool {
 public:
  /// `threads == 0` picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Requests stop on every worker and joins. Queued jobs that have not
  /// started are discarded; running jobs finish.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue one fire-and-forget job.
  void submit(std::function<void()> job);

  /// Run body(0..count-1), blocking until every index completed. The
  /// calling thread participates, so a pool is never deadlocked by
  /// nesting and `parallel_for` works even while workers are busy.
  /// Indices are claimed from a shared atomic ticket, one at a time —
  /// per-index cost in this codebase (a fuzz case, a soak chunk) dwarfs
  /// the claim.
  /// The first exception thrown by `body` is captured and rethrown here
  /// after all claimed indices finish.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop(std::stop_token token);

  std::mutex mutex_;
  std::condition_variable_any cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::jthread> workers_;  // last member: joins before the rest die
};

}  // namespace sage::util
