#include "congest/worker_pool.h"

#include <chrono>

#ifdef __linux__
#include <sched.h>
#endif

#include "support/assert.h"

namespace lightnet::congest {

namespace {

// Spin iterations before a waiter starts yielding (with the pause hint,
// about 56 µs on a 4-vCPU Xeon VM). An oversubscribed pool spins this many
// plain loads and then blocks, so it gives up the core within microseconds.
constexpr int kSpinIterations = 1 << 12;

// How long a waiter spins and yields before it blocks. On the 2^20-vertex
// grid BFS at threads=4 (4-vCPU Xeon VM; 73.7k worker waits over six runs),
// a worker waited for the next phase less than 64 µs in 98.9% of hand-offs
// and less than 256 µs in 99.9%. With a plain spin of 4096 loads, 96% of
// those waits ended in a futex sleep and a wake-up.
constexpr auto kYieldBudget = std::chrono::microseconds(200);

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// CPUs this process may run on: its affinity mask, as nproc counts them
// (hardware_concurrency ignores the mask).
int usable_cpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// The CPU each of the `threads - 1` workers starts on: the CPUs of the
// affinity mask after the calling thread's, so the caller's own comes last.
// Empty when the CPUs cannot be listed.
std::vector<int> worker_cpus(int threads) {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int home = sched_getcpu();
  if (home < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
    return cpus;
  for (int step = 1; step <= CPU_SETSIZE; ++step) {
    if (static_cast<int>(cpus.size()) == threads - 1) return cpus;
    const int cpu = (home + step) % CPU_SETSIZE;
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  cpus.clear();
#else
  (void)threads;
#endif
  return cpus;
}

// Moves the calling thread onto `cpu`, then restores its affinity mask: a
// starting place, not a pin, so the kernel may still migrate it later.
void move_to_cpu(int cpu) {
#ifdef __linux__
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0)
    sched_setaffinity(0, sizeof(allowed), &allowed);
#else
  (void)cpu;
#endif
}

// The non-blocking part of a wait: true once ready() holds, false when the
// budget ran out and the caller must block.
template <typename Ready>
bool wait_briefly(bool oversubscribed, Ready ready) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpinIterations; ++i) {
    if (ready()) return true;
    if (!oversubscribed) cpu_relax();
  }
  if (oversubscribed) return false;
  do {
    std::this_thread::yield();
    if (ready()) return true;
  } while (std::chrono::steady_clock::now() - start < kYieldBudget);
  return false;
}

}  // namespace

WorkerPool::WorkerPool(int threads)
    : threads_(threads), oversubscribed_(threads > usable_cpus()) {
  LN_REQUIRE(threads >= 1, "worker pool needs at least one thread");
  // Spinning waiters need a CPU each. The kernel may start every thread of
  // a fresh process on its creator's CPU and keep them there for hundreds
  // of milliseconds, so each worker first moves to a CPU of its own.
  const std::vector<int> cpus =
      oversubscribed_ ? std::vector<int>() : worker_cpus(threads);
  workers_.reserve(static_cast<size_t>(threads - 1));
  for (int id = 1; id < threads; ++id) {
    const int cpu = cpus.empty() ? -1 : cpus[static_cast<size_t>(id - 1)];
    workers_.emplace_back([this, id, cpu] {
      if (cpu >= 0) move_to_cpu(cpu);
      worker_loop(id);
    });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // A new epoch ends the spin and yield steps at once, so workers see
    // stop_ without first running out their budget.
    epoch_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::uint64_t WorkerPool::run(const std::function<void(int)>& job) {
  remaining_.store(threads_, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    // Release-publishes job_ and remaining_ to workers that read the epoch
    // with acquire in their spin loop (sleepers are ordered by the mutex).
    epoch_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();

  try {
    job(0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) error_ = std::current_exception();
  }

  std::uint64_t wait_ns = 0;
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    const auto wait_start = std::chrono::steady_clock::now();
    const auto done = [this] {
      return remaining_.load(std::memory_order_acquire) == 0;
    };
    if (!wait_briefly(oversubscribed_, done)) {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, done);
    }
    wait_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count());
  }

  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
  return wait_ns;
}

void WorkerPool::worker_loop(int id) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const bool spun_to_work = wait_briefly(oversubscribed_, [&] {
      return epoch_.load(std::memory_order_acquire) != seen_epoch;
    });
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!spun_to_work) {
        start_cv_.wait(lock, [this, seen_epoch] {
          return stop_ || epoch_.load(std::memory_order_relaxed) != seen_epoch;
        });
      }
      if (stop_) return;
      seen_epoch = epoch_.load(std::memory_order_relaxed);
      job = job_;
    }
    try {
      (*job)(id);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last one out wakes the caller; the lock orders the notify against
      // the caller entering its wait.
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

}  // namespace lightnet::congest
