// Tests for the scheduler's persistent worker pool (congest/worker_pool.h).
//
// The pool's contract: run(job) executes job(id) exactly once for every
// worker id and returns only after all of them finished, whether the
// waiters caught the phase while spinning, while yielding or after
// blocking; a job's exception reaches the caller and leaves the pool
// usable; and a pool larger than the machine still completes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "congest/worker_pool.h"

namespace lightnet::congest {
namespace {

// Runs `phases` back-to-back phases in which every worker bumps its own
// counter, and checks after each that every id ran exactly once more.
void expect_each_id_once_per_phase(WorkerPool& pool, int phases) {
  const int t = pool.threads();
  std::vector<std::atomic<int>> runs(static_cast<size_t>(t));
  for (int phase = 1; phase <= phases; ++phase) {
    pool.run([&](int id) {
      runs[static_cast<size_t>(id)].fetch_add(1, std::memory_order_relaxed);
    });
    for (int id = 0; id < t; ++id)
      ASSERT_EQ(runs[static_cast<size_t>(id)].load(), phase)
          << "worker " << id << " phase " << phase;
  }
}

TEST(WorkerPool, EachWorkerRunsOncePerPhase) {
  for (int threads : {1, 2, 4}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    expect_each_id_once_per_phase(pool, 10000);
  }
}

// A phase longer than the spin and yield budget: the caller ends up
// blocked at the barrier and must still be woken, and the reported wait
// covers the straggler's sleep.
TEST(WorkerPool, PhaseLongerThanSpinBudgetCompletes) {
  WorkerPool pool(3);
  std::vector<std::atomic<int>> runs(3);
  const std::uint64_t wait_ns = pool.run([&](int id) {
    if (id == 1) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    runs[static_cast<size_t>(id)].fetch_add(1);
  });
  for (int id = 0; id < 3; ++id)
    EXPECT_EQ(runs[static_cast<size_t>(id)].load(), 1) << "worker " << id;
  EXPECT_GE(wait_ns, 1'000'000u);
  // The same gap between phases: workers block on the condition variable
  // and must be woken for the next epoch.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  expect_each_id_once_per_phase(pool, 3);
}

TEST(WorkerPool, ExceptionReachesCallerAndPoolStaysUsable) {
  WorkerPool pool(4);
  for (int thrower : {0, 2}) {
    std::atomic<int> finished{0};
    EXPECT_THROW(pool.run([&](int id) {
                   if (id == thrower)
                     throw std::runtime_error("worker " + std::to_string(id));
                   finished.fetch_add(1);
                 }),
                 std::runtime_error);
    // Every other worker still ran its share before the rethrow.
    EXPECT_EQ(finished.load(), 3);
    expect_each_id_once_per_phase(pool, 100);
  }
}

// More threads than CPUs: waiters take the short plain spin and block, and
// the pool must still complete every phase.
TEST(WorkerPool, MoreThreadsThanCpusCompletes) {
  const int cpus =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  WorkerPool pool(2 * cpus + 1);
  expect_each_id_once_per_phase(pool, 200);
}

// Pools are created and destroyed once per parallel scheduler run; a
// destructor must end workers that are still spinning or yielding.
TEST(WorkerPool, ShortLivedPoolsShutDown) {
  for (int i = 0; i < 100; ++i) {
    WorkerPool pool(4);
    expect_each_id_once_per_phase(pool, 2);
  }
}

}  // namespace
}  // namespace lightnet::congest
