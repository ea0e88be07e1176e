// A small reusable worker pool for the parallel generation pipeline
// (code-summary passes and the sharded final DFS).
//
// Design constraints, in order: determinism of the *callers* (the pool
// itself never imposes an ordering — callers shard work deterministically
// and merge results in shard order), exception safety (the first exception
// thrown by a task is captured and re-thrown on the submitting thread),
// and zero thread overhead in the single-threaded case (`run` with one
// worker executes inline).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace meissa::util {

// Resolves a thread-count option: n > 0 is taken literally; 0 means
// std::thread::hardware_concurrency() (at least 1).
int resolve_threads(int requested);
// The same, capped at `max_tasks` (at least 1): the size of a pool whose
// run() never has more than `max_tasks` tasks at once, so no thread idles.
int resolve_threads(int requested, size_t max_tasks);

class ThreadPool {
 public:
  // Spawns `threads - 1` workers (the submitting thread participates in
  // run()); threads <= 1 spawns none and everything runs inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task. Tasks may be submitted from task bodies.
  void submit(std::function<void()> fn);

  // Blocks until the queue is empty and every worker is idle, helping to
  // drain the queue from the calling thread. Re-throws the first task
  // exception (subsequent tasks still ran; their exceptions are dropped).
  void wait_idle();

  // Convenience: submit fn(0..n-1) and wait_idle(). With <= 1 total
  // threads this runs the loop inline on the calling thread, in order.
  // Exception contract matches the pooled path at every thread count:
  // all n tasks run, and the first exception is rethrown afterwards.
  void run(size_t n, const std::function<void(size_t)>& fn);

  // Total parallelism (workers + the submitting thread).
  int size() const noexcept { return static_cast<int>(workers_.size()) + 1; }

 private:
  void worker_loop();
  // Pops and runs one task; returns false when the queue was empty.
  bool run_one(std::unique_lock<std::mutex>& lk);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for tasks
  std::condition_variable idle_cv_;  // wait_idle waits for quiescence
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t running_ = 0;  // tasks currently executing
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace meissa::util
