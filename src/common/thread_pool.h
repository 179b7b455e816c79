// Fixed-size work-stealing thread pool for the parallel evaluation plane.
//
// The pool follows the shared-nothing worker pattern of high-throughput
// packet frameworks (mTCP's per-core stacks, IX's run-to-completion
// dataplane): callers keep one unit of mutable scratch state *per lane* and
// share only immutable data, so no work item ever synchronizes with another
// beyond the queue handoff. Two entry points:
//
//  - parallel_for(n, body): runs body(i, lane) for every i in [0, n),
//    splitting the index space into chunks spread across lanes; idle lanes
//    steal chunks from busy ones. The calling thread participates as lane 0
//    and the call blocks until every index ran. `lane` identifies the
//    executing lane (0 = caller, 1..workers() = pool threads) and is unique
//    among concurrently running bodies, so indexing per-lane scratch by it
//    is race-free by construction.
//  - submit(fn) + wait(): fire-and-collect for heterogeneous tasks; wait()
//    has the caller help drain the queues rather than just block.
//
// Determinism: the pool guarantees nothing about *execution order*, so
// callers achieve deterministic results by writing into index-addressed
// slots (out[i] = f(i)) and doing any order-sensitive reduction over those
// slots afterwards. Every user in this repository (GA fitness batches, the
// bench sweep runner) follows that pattern, which is why their output is
// bit-identical for any worker count, including zero.
//
// External calls (constructor aside) must come from one thread at a time —
// the pool's owner. Tasks themselves must not call back into the pool; a
// parallel_for issued from inside a worker runs inline on that lane.
//
// The "tasks executed / stolen" counters are exposed via stats() and can be
// published into an obs::MetricsRegistry with obs::publish_pool_stats()
// (src/obs/pool_gauges.h).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace r2c2 {

class ThreadPool {
 public:
  // Spawns `workers` threads (clamped to >= 0). 0 is valid and useful: every
  // entry point degrades to inline execution on the caller, so code can be
  // written once against the pool API and run serially.
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }
  // Execution lanes = workers + the calling thread.
  int lanes() const { return workers() + 1; }
  // Workers to spawn so that lanes() == the machine's hardware concurrency.
  static int hardware_workers();

  // Runs body(i, lane) for every i in [0, n); blocks until all ran. The
  // first exception thrown by `body` is rethrown here after the batch
  // drains (remaining chunks are skipped, not interrupted).
  void parallel_for(std::size_t n, const std::function<void(std::size_t, int)>& body);

  // Enqueues one task; wait() blocks until all submitted tasks finished,
  // with the caller executing queued tasks itself while it waits.
  void submit(std::function<void()> fn);
  void wait();

  // Enqueues one lane-aware task on a specific lane's queue. Placement is a
  // locality hint, not a pin: an idle lane may still steal the task, so the
  // `lane` argument passed to `fn` at execution time is the *executing*
  // lane, which can differ from the queue it was placed on. Callers that
  // want per-task state (e.g. the GA's per-lane waterfill clones) capture
  // the state's index in the closure instead of trusting the executing
  // lane — then a steal only changes which OS thread runs the task, never
  // which state it touches.
  void submit_on(int lane, std::function<void(int)> fn);

  struct Stats {
    std::uint64_t executed = 0;  // tasks run to completion, by any lane
    std::uint64_t stolen = 0;    // tasks popped from another lane's queue
  };
  Stats stats() const {
    return {executed_.load(std::memory_order_relaxed), stolen_.load(std::memory_order_relaxed)};
  }

 private:
  // A task knows the lane executing it (for per-lane scratch routing).
  using Task = std::function<void(int)>;
  struct Lane {
    std::mutex m;
    std::deque<Task> q;
  };

  void worker_main(int lane);
  // Pops from `lane`'s own queue, else steals from the others. Returns
  // false when every queue is empty.
  bool pop_or_steal(int lane, Task& out);
  void run_task(Task&& task, int lane);
  void push_task(int lane, Task task);
  bool queues_empty();

  std::vector<std::unique_ptr<Lane>> lanes_;  // [0] = caller, [1..] = workers
  std::vector<std::thread> threads_;
  std::mutex m_;
  std::condition_variable work_cv_;  // workers sleep here when queues drain
  std::condition_variable done_cv_;  // wait()/parallel_for callers sleep here
  std::atomic<std::uint64_t> inflight_{0};  // queued + currently running tasks
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  unsigned next_lane_ = 0;  // round-robin placement cursor for submit()
  bool stop_ = false;
};

}  // namespace r2c2
