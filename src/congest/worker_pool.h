// A persistent thread pool for the scheduler's parallel round phases.
//
// One pool lives for the whole execution: workers are spawned once and then
// re-dispatched every phase of every round, so the steady-state cost of a
// phase is two synchronizations (release the workers, join them at the
// barrier), not thread creation. A parallel round makes two such hand-offs
// (delivery, then invocation). Dispatch is epoch-based: run() publishes a
// job and bumps the epoch; workers run job(worker_id) exactly once per
// epoch and count themselves out.
//
// Waiting, for the next epoch or for stragglers at the barrier, goes in
// three steps. A waiter spins with a CPU pause hint for a few thousand
// iterations, then yields its core until about 200 µs have passed since
// the wait began, and only then blocks on a condition variable. The budget
// covers the gap between two hand-offs of a round, so in steady state a
// hand-off pays no futex wake-up. Spinning only pays with a CPU per
// thread, so each worker starts by moving itself to its own CPU of the
// process's affinity mask and then restores the mask (the kernel may
// otherwise keep a fresh process's threads on their creator's CPU for
// hundreds of milliseconds). A pool with more threads than the CPUs the
// process may run on (its affinity mask, as nproc counts them) does
// neither: it spins briefly with plain loads and then blocks, so
// oversubscribed hosts (CI runners, single-core containers) hand the core
// to the sibling workers that need it.
//
// Exceptions thrown by a job (LN_ASSERT violations, strict-congest aborts)
// are captured per phase and rethrown on the calling thread after the
// barrier, so parallel failures surface exactly like serial ones.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lightnet::congest {

class WorkerPool {
 public:
  // Spawns `threads - 1` workers; the thread that calls run() participates
  // as worker 0.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Executes job(worker_id) for every worker_id in [0, threads()); returns
  // once all workers have finished. The return value is the nanoseconds the
  // calling thread spent waiting for stragglers after finishing its own
  // share — the barrier-wait instrument CostStats::barrier_wait_ns sums.
  // Rethrows the first exception any worker threw during the phase.
  std::uint64_t run(const std::function<void(int)>& job);

  int threads() const { return threads_; }

 private:
  void worker_loop(int id);

  const int threads_;
  // More threads than usable CPUs: no start placement, and waiters skip
  // the pause and yield steps.
  const bool oversubscribed_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> remaining_{0};
  bool stop_ = false;

  std::mutex error_mutex_;
  std::exception_ptr error_;
};

}  // namespace lightnet::congest
