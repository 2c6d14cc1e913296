// Deterministic task pool: fans whole queries out across threads.
//
// The library's kernels (src/{core,graph,mst,mincut,sssp,congest,tecss}) are
// sequential and run on their caller's thread, so their outputs do not
// depend on the thread count by construction.  The pool has one job:
// parallel_tasks(count, task) runs task(t) for every t in [0, count) on a
// small work-stealing-free pool.  Its callers are the service layer's batch
// runners (run_batch, streaming waves) and the partition-pool warmer; each
// task is one whole query or one pool slot.
//
// Determinism contract: a task writes only its own index-addressed slot, so
// the batch's results never depend on thread count or scheduling.  Every
// task runs even when some throw; the caller then re-throws the exception
// of the smallest throwing index, at every thread count.  parallel_tasks is
// a top-level entry
// point: calling it from inside a task throws std::invalid_argument rather
// than deadlocking the pool.
//
// Thread count resolution, in priority order: set_num_threads(n) override,
// the LCS_THREADS environment variable, std::thread::hardware_concurrency.
#pragma once

#include <cstddef>
#include <functional>

namespace lcs {

/// Number of executors (caller + workers) the next parallel_tasks call uses.
unsigned num_threads();

/// Override the thread count (0 restores LCS_THREADS / hardware default).
/// Not safe to call concurrently with a running parallel_tasks call.
void set_num_threads(unsigned n);

/// Current override as set by set_num_threads (0 when none), so callers that
/// sweep thread counts (the S3 bench scenario) can restore the prior state.
unsigned thread_override();

/// RAII restore of the thread-count override: thread-sweeping scenario and
/// test bodies call set_num_threads() freely and the destructor puts the
/// prior override back, even on exceptions.
struct ThreadOverrideGuard {
  unsigned previous = thread_override();
  ThreadOverrideGuard() = default;
  ThreadOverrideGuard(const ThreadOverrideGuard&) = delete;
  ThreadOverrideGuard& operator=(const ThreadOverrideGuard&) = delete;
  ~ThreadOverrideGuard() { set_num_threads(previous); }
};

/// True while the calling thread executes a parallel_tasks task body.
/// The flag behind parallel_tasks' nesting check; the snapshot's
/// partition-pool warmer reads it to warm serially inside a task.
bool in_parallel_region();

/// Runs task(t) for every t in [0, count) across the pool and blocks until
/// all finished.  Top-level entry: calling it from inside a task throws
/// std::invalid_argument.  An exception thrown by a task is re-thrown in the
/// caller (smallest task index wins); batch runners that must not abort
/// siblings catch inside the task.
void parallel_tasks(std::size_t count, const std::function<void(std::size_t)>& task);

}  // namespace lcs
