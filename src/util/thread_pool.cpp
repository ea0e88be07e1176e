#include "util/thread_pool.hpp"

#include <algorithm>

namespace meissa::util {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int resolve_threads(int requested, size_t max_tasks) {
  const size_t cap = std::max<size_t>(max_tasks, 1);
  return static_cast<int>(
      std::min(static_cast<size_t>(resolve_threads(requested)), cap));
}

ThreadPool::ThreadPool(int threads) {
  for (int i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

bool ThreadPool::run_one(std::unique_lock<std::mutex>& lk) {
  if (queue_.empty()) return false;
  std::function<void()> fn = std::move(queue_.front());
  queue_.pop_front();
  ++running_;
  lk.unlock();
  std::exception_ptr err;
  try {
    fn();
  } catch (...) {
    err = std::current_exception();
  }
  lk.lock();
  if (err && !first_error_) first_error_ = err;
  --running_;
  if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
  return true;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
    if (stop_ && queue_.empty()) return;
    run_one(lk);
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  // Help drain: the submitting thread is a worker too.
  while (run_one(lk)) {
  }
  idle_cv_.wait(lk, [this] { return queue_.empty() && running_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::run(size_t n, const std::function<void(size_t)>& fn) {
  if (size() <= 1) {
    // Parity with the pooled path: a throwing task must not abort the
    // batch (the pool runs every submitted task and rethrows the *first*
    // exception at wait_idle), otherwise threads=1 would complete fewer
    // tasks than threads=N for the same workload.
    std::exception_ptr err;
    for (size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!err) err = std::current_exception();
      }
    }
    if (err) std::rethrow_exception(err);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    submit([i, &fn] { fn(i); });
  }
  wait_idle();
}

}  // namespace meissa::util
