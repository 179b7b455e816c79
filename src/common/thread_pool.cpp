#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

namespace r2c2 {

namespace {

// Lane of the current thread: 0 for any external thread, >= 1 inside a
// pool worker. Used to detect re-entrant parallel_for calls.
thread_local int t_lane = 0;

}  // namespace

int ThreadPool::hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<int>(hw) - 1 : 0;
}

ThreadPool::ThreadPool(int workers) {
  workers = std::max(0, workers);
  lanes_.reserve(static_cast<std::size_t>(workers) + 1);
  for (int i = 0; i <= workers; ++i) lanes_.push_back(std::make_unique<Lane>());
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 1; i <= workers; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(m_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::push_task(int lane, Task task) {
  {
    std::lock_guard lock(lanes_[static_cast<std::size_t>(lane)]->m);
    lanes_[static_cast<std::size_t>(lane)]->q.push_back(std::move(task));
  }
  inflight_.fetch_add(1, std::memory_order_relaxed);
  // Taking m_ before notifying closes the race with a worker that found the
  // queues empty and is between its re-check and its wait.
  {
    std::lock_guard lock(m_);
  }
  work_cv_.notify_one();
}

bool ThreadPool::pop_or_steal(int lane, Task& out) {
  const std::size_t n = lanes_.size();
  // Own queue first (front: submission order)...
  {
    Lane& own = *lanes_[static_cast<std::size_t>(lane)];
    std::lock_guard lock(own.m);
    if (!own.q.empty()) {
      out = std::move(own.q.front());
      own.q.pop_front();
      return true;
    }
  }
  // ...then steal from the other lanes' tails.
  for (std::size_t off = 1; off < n; ++off) {
    Lane& victim = *lanes_[(static_cast<std::size_t>(lane) + off) % n];
    std::lock_guard lock(victim.m);
    if (!victim.q.empty()) {
      out = std::move(victim.q.back());
      victim.q.pop_back();
      stolen_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool ThreadPool::queues_empty() {
  for (const auto& lane : lanes_) {
    std::lock_guard lock(lane->m);
    if (!lane->q.empty()) return false;
  }
  return true;
}

void ThreadPool::run_task(Task&& task, int lane) {
  task(lane);
  executed_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_release);
  {
    std::lock_guard lock(m_);
  }
  done_cv_.notify_all();
}

void ThreadPool::worker_main(int lane) {
  t_lane = lane;
  for (;;) {
    Task task;
    if (pop_or_steal(lane, task)) {
      run_task(std::move(task), lane);
      continue;
    }
    std::unique_lock lock(m_);
    if (stop_) return;
    if (!queues_empty()) continue;  // raced with a push; go pop it
    work_cv_.wait(lock);
    if (stop_) return;
  }
}

void ThreadPool::submit_on(int lane, std::function<void(int)> fn) {
  lane = std::clamp(lane, 0, workers());
  push_task(lane, std::move(fn));
}

void ThreadPool::submit(std::function<void()> fn) {
  // Round-robin across worker lanes (lane 0 only when there are none, so
  // tasks don't sit waiting for the owner to call wait()).
  const int lane = workers() == 0 ? 0 : 1 + static_cast<int>(next_lane_++ % static_cast<unsigned>(workers()));
  push_task(lane, [f = std::move(fn)](int) { f(); });
}

void ThreadPool::wait() {
  for (;;) {
    Task task;
    if (pop_or_steal(0, task)) {
      run_task(std::move(task), 0);
      continue;
    }
    std::unique_lock lock(m_);
    if (inflight_.load(std::memory_order_acquire) == 0) return;
    if (!queues_empty()) continue;
    done_cv_.wait(lock, [this] {
      return inflight_.load(std::memory_order_acquire) == 0 || !queues_empty();
    });
    if (inflight_.load(std::memory_order_acquire) == 0) return;
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t, int)>& body) {
  if (n == 0) return;
  // Inline execution: no workers, a single index, or a re-entrant call from
  // inside a worker (nested parallelism runs serially on that lane).
  if (workers() == 0 || n == 1 || t_lane != 0) {
    for (std::size_t i = 0; i < n; ++i) body(i, t_lane);
    return;
  }

  struct Batch {
    std::atomic<std::size_t> remaining;
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_m;
  };
  auto batch = std::make_shared<Batch>();
  batch->remaining.store(n, std::memory_order_relaxed);

  // ~4 chunks per lane balances stealing freedom against queue traffic;
  // tiny n degenerates to one index per chunk.
  const std::size_t lane_count = static_cast<std::size_t>(lanes());
  const std::size_t chunk = std::max<std::size_t>(1, n / (4 * lane_count));
  int place = 0;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    push_task(place, [batch, &body, begin, end](int lane) {
      if (!batch->failed.load(std::memory_order_relaxed)) {
        try {
          for (std::size_t i = begin; i < end; ++i) body(i, lane);
        } catch (...) {
          bool expected = false;
          if (batch->failed.compare_exchange_strong(expected, true)) {
            std::lock_guard lock(batch->error_m);
            batch->error = std::current_exception();
          }
        }
      }
      batch->remaining.fetch_sub(end - begin, std::memory_order_acq_rel);
    });
    place = (place + 1) % static_cast<int>(lane_count);
  }

  // The caller is lane 0: help execute until the batch drains. It may pick
  // up chunks of this batch or unrelated submitted tasks — both are
  // progress; the final wait only sleeps when nothing is poppable.
  while (batch->remaining.load(std::memory_order_acquire) > 0) {
    Task task;
    if (pop_or_steal(0, task)) {
      run_task(std::move(task), 0);
      continue;
    }
    std::unique_lock lock(m_);
    if (batch->remaining.load(std::memory_order_acquire) == 0) break;
    if (!queues_empty()) continue;
    done_cv_.wait(lock, [&] {
      return batch->remaining.load(std::memory_order_acquire) == 0 || !queues_empty();
    });
  }
  if (batch->failed.load(std::memory_order_acquire)) {
    std::lock_guard lock(batch->error_m);
    std::rethrow_exception(batch->error);
  }
}

}  // namespace r2c2
