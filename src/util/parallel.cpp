#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace lcs {
namespace {

std::atomic<unsigned> g_override{0};

// Set while this thread runs task bodies (the caller's sequential path and
// every pool worker), so a nested parallel_tasks call is rejected
// identically at every thread count.
thread_local bool tl_in_region = false;

struct RegionScope {
  RegionScope() { tl_in_region = true; }
  ~RegionScope() { tl_in_region = false; }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;
};

unsigned env_threads() {
  const char* env = std::getenv("LCS_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 1 || v > 1024) return 0;
  return static_cast<unsigned>(v);
}

// One batch of tasks.  Lives in a shared_ptr so a worker that wakes after
// the caller already returned only observes an exhausted batch instead of a
// dangling pointer.
struct Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t total = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex err_mutex;
  std::exception_ptr error;
  std::size_t error_task = 0;

  void record_error(std::size_t task, std::exception_ptr e) {
    const std::lock_guard<std::mutex> lock(err_mutex);
    if (error == nullptr || task < error_task) {
      error = std::move(e);
      error_task = task;
    }
  }
};

class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads) : size_(std::max(1u, threads)) {
    workers_.reserve(size_ - 1);
    for (unsigned w = 1; w < size_; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  unsigned size() const { return size_; }

  void run(std::size_t num_tasks, const std::function<void(std::size_t)>& fn) {
    auto batch = std::make_shared<Batch>();
    batch->fn = &fn;
    batch->total = num_tasks;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Serialize batches from independent caller threads.
      caller_cv_.wait(lock, [this] { return batch_ == nullptr; });
      batch_ = batch;
      ++generation_;
    }
    wake_cv_.notify_all();
    execute(*batch);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] { return batch->done.load() == batch->total; });
      batch_ = nullptr;
    }
    caller_cv_.notify_one();
    // Moved out so the exception object never dies on a late worker that
    // drops the last reference to the batch while our caller still reads it.
    if (std::exception_ptr error = std::move(batch->error)) std::rethrow_exception(error);
  }

 private:
  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        batch = batch_;
      }
      if (batch != nullptr) execute(*batch);
    }
  }

  void execute(Batch& batch) {
    std::size_t finished = 0;
    {
      const RegionScope region;
      for (;;) {
        const std::size_t task = batch.next.fetch_add(1, std::memory_order_relaxed);
        if (task >= batch.total) break;
        try {
          (*batch.fn)(task);
        } catch (...) {
          batch.record_error(task, std::current_exception());
        }
        ++finished;
      }
    }
    if (finished == 0) return;
    const std::size_t done = batch.done.fetch_add(finished) + finished;
    if (done == batch.total) {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }

  const unsigned size_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::condition_variable caller_cv_;
  std::shared_ptr<Batch> batch_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

// The global pool, rebuilt when the resolved thread count changes (cheap:
// only on set_num_threads / LCS_THREADS transitions, never mid-region).
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool>& pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

ThreadPool& global_pool() {
  const std::lock_guard<std::mutex> lock(g_pool_mutex);
  auto& pool = pool_slot();
  const unsigned want = num_threads();
  if (pool == nullptr || pool->size() != want) pool = std::make_unique<ThreadPool>(want);
  return *pool;
}

}  // namespace

unsigned num_threads() {
  const unsigned over = g_override.load(std::memory_order_relaxed);
  if (over > 0) return over;
  const unsigned env = env_threads();
  if (env > 0) return env;
  return std::max(1u, std::thread::hardware_concurrency());
}

void set_num_threads(unsigned n) { g_override.store(n, std::memory_order_relaxed); }

unsigned thread_override() { return g_override.load(std::memory_order_relaxed); }

bool in_parallel_region() { return tl_in_region; }

void parallel_tasks(std::size_t count, const std::function<void(std::size_t)>& task) {
  LCS_REQUIRE(!tl_in_region, "parallel_tasks is a top-level entry point");
  if (count == 0) return;
  if (count == 1 || num_threads() == 1) {
    // Sequential fast path: same task order, same nesting rejection, and
    // like the pool it runs every task before re-throwing the first error.
    std::exception_ptr error;
    {
      const RegionScope region;
      for (std::size_t t = 0; t < count; ++t) {
        try {
          task(t);
        } catch (...) {
          if (error == nullptr) error = std::current_exception();
        }
      }
    }
    if (error != nullptr) std::rethrow_exception(error);
    return;
  }
  global_pool().run(count, task);
}

}  // namespace lcs
