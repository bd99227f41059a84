#include "common/thread_pool.h"

#include <cstdlib>

namespace dhs {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.SignalAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    CHECK(!shutdown_) << "Submit on a shut-down ThreadPool";
    queue_.push_back(std::move(task));
  }
  work_cv_.Signal();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (!queue_.empty() || active_ != 0) idle_cv_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !shutdown_) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.SignalAll();
    }
  }
}

int DefaultTrialThreads() {
  // Read once: DHS_THREADS is consulted before any worker exists, and
  // nothing in the codebase calls setenv.
  const char* env = std::getenv("DHS_THREADS");  // NOLINT(concurrency-mt-unsafe)
  if (env != nullptr && env[0] != '\0') {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

uint64_t TrialSeed(uint64_t seed_base, int trial) {
  // The canonical SplitMix64 stream seeded at `seed_base`, indexed at
  // position trial + 1: mix(base + (trial+1) * golden-gamma). Unlike a
  // symmetric XOR of the two inputs, (base, trial) -> seed is injective
  // for all trial counts below 2^63, so distinct trials can never share
  // a seed — even across the small seed_base values the benches use.
  constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ull;  // SplitMix64's step
  return SplitMix64(seed_base + (static_cast<uint64_t>(trial) + 1) * kGamma);
}

}  // namespace dhs
