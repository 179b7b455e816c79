// Discrete-event simulation engine: serial binary heap, optionally sharded
// into per-lane heaps driven in parallel under conservative lookahead.
//
// Serial mode (the default, shards == 1) is the original engine: one
// binary heap of (time, key)-ordered events; ties in time are processed
// in scheduling order, which makes every simulation fully deterministic
// for a given seed. A heap entry is plain data — (time, key, EventDesc),
// 40 bytes — and executing it means handing the descriptor to the one
// dispatch entry point the owning simulator registered (set_handler),
// which switches on its kind. Live execution and snapshot restore share
// that path: a restored queue is the same descriptors, validated.
//
// Sharded mode (configure_shards with shards K > 1) splits the event
// queue into K shard lanes plus one global lane (index K), each with its
// own heap and clock. Simulation code runs each shard's events on a
// worker thread inside conservative windows [T, T + lookahead): the
// lookahead is the minimum propagation latency across shard-boundary
// links, so nothing a shard does inside a window can affect another
// shard within the same window — no rollback is ever needed. Whenever
// the global lane owns the earliest event, the engine drops to a
// single-threaded serial phase so global control logic may touch any
// lane. Event keys are stamped (origin_seq << 7 | origin_lane), a
// composite that totals-orders same-timestamp ties exactly like the
// serial engine's single sequence counter — an N-worker run is
// bit-identical to the 1-worker run with the same shard count.
//
// Worker count is pure parallelism: it never changes the trajectory.
// Shard count K > 1 is part of the configuration (different event
// interleaving than K == 1) and is mixed into snapshot fingerprints by
// the simulator.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"
#include "sim/event_kind.h"
#include "snapshot/archive.h"
#include "snapshot/digest.h"
#include "snapshot/visit.h"

namespace r2c2::sim {

// A scheduled event: a kind (sim/event_kind.h) plus up to two operands
// (a flow id, a link id, a parked-packet slot, ...). It is the only
// representation an event has. The engine orders descriptors in time and
// hands each to the owning simulator's dispatch entry point, which
// switches on the kind; a snapshot stores the same descriptors, so a
// restored queue runs through exactly the code a live one does.
struct EventDesc {
  std::uint32_t kind = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

namespace detail {
// Lane context of the executing thread during a parallel window (or
// mailbox drain); -1 everywhere else. One engine runs a window at a time
// per thread, so a single slot suffices.
inline thread_local int tls_engine_lane = -1;
}  // namespace detail

class Engine {
  struct Lane;

 public:
  // Lane index fits in the low 7 bits of an event key.
  static constexpr int kLaneBits = 7;
  static constexpr int kMaxShards = 126;

  // A heap entry: plain data, so sifts copy 40 bytes and nothing else.
  struct Event {
    TimeNs time;
    std::uint64_t key;
    EventDesc desc;
    bool before(const Event& o) const { return time != o.time ? time < o.time : key < o.key; }
    template <class V, class S>
    static void visit(V& v, S& s) {
      v(s.time);
      v(s.key);
      v(s.desc.kind);
      v(s.desc.a);
      v(s.desc.b);
    }
  };

  // The dispatch entry point: called once per executed event, on the
  // thread that owns the event's lane.
  using Handler = void (*)(void* owner, const EventDesc& ev);

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Registers the owning simulator's dispatch entry point. Must be set
  // before run() executes any event.
  void set_handler(Handler fn, void* owner) {
    handler_ = fn;
    owner_ = owner;
  }
  // Convenience: dispatch to `owner.on_event(const EventDesc&)`.
  template <typename T>
  void set_handler(T& owner) {
    set_handler([](void* o, const EventDesc& ev) { static_cast<T*>(o)->on_event(ev); }, &owner);
  }

  // Switches the engine into sharded mode: `shards` shard lanes plus one
  // global lane. `lookahead` is the conservative window width (minimum
  // shard-boundary propagation delay, see topology/partition.h) and must
  // be positive. `workers` threads drive the shard lanes inside windows
  // (clamped to [1, shards]; the thread gang is spawned lazily on the
  // first parallel run). Must be called before anything is scheduled.
  void configure_shards(int shards, int workers, TimeNs lookahead);

  int shards() const { return shards_; }
  int workers() const { return workers_; }
  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  int global_lane() const { return shards_ == 1 ? 0 : shards_; }
  TimeNs lookahead() const { return lookahead_; }

  // Lane the calling thread is executing in: the worker's lane inside a
  // parallel window or drain, the executing event's lane in a serial
  // phase, the global lane outside run().
  int current_lane() const {
    const int tls = detail::tls_engine_lane;
    return tls >= 0 ? tls : cur_lane_;
  }
  // True while shard lanes are running a conservative window in parallel.
  // Cross-lane interaction is forbidden then: hand packets over via
  // mailboxes and drain them at the window barrier.
  bool in_window() const { return in_window_; }

  // Clock of the calling context's lane (the single clock in serial mode).
  TimeNs now() const { return lanes_[static_cast<std::size_t>(current_lane())].now; }
  TimeNs lane_now(int lane) const { return lanes_[static_cast<std::size_t>(lane)].now; }

  void schedule_at(TimeNs t, EventDesc desc) {
    const int lane_idx = current_lane();
    Lane& lane = lanes_[static_cast<std::size_t>(lane_idx)];
    if (t < lane.now) {
      // Never schedule into the past — but never do it silently either.
      // Outside parallel windows a past-time deadline is legal (an RTO
      // that expired while the flow was stalled, a barrier-deferred op
      // re-arming a tick); the clamp is counted so the obs layer can
      // surface it. Inside a window it is a causality violation: the
      // event would be lost behind the lane's cursor.
      ++lane.clamped;
      assert(!in_window_ && "past-time schedule inside a parallel window");
      t = lane.now;
    }
    push_event(lane.heap, Event{t, alloc_key_from(lane_idx), desc});
  }
  void schedule_in(TimeNs dt, EventDesc desc) { schedule_at(now() + dt, desc); }

  // Schedules onto an explicit lane, stamping the key from the *calling*
  // lane's sequence counter (ties keep the origin's serial order). Only
  // legal across lanes outside parallel windows; inside a window a shard
  // may only reach other lanes through mailboxes + schedule_keyed.
  void schedule_on(int lane_idx, TimeNs t, EventDesc desc) {
    assert(lane_idx >= 0 && lane_idx < num_lanes());
    assert(!in_window_ || lane_idx == current_lane());
    schedule_keyed(lane_idx, t, alloc_key_from(current_lane()), desc);
  }

  // Allocates an event key from the calling lane without scheduling —
  // mailbox posts stamp (time, key) at send time and the destination
  // inserts via schedule_keyed at the window barrier, preserving the
  // origin's tie order exactly as if the event had been pushed directly.
  std::uint64_t alloc_key() { return alloc_key_from(current_lane()); }

  void schedule_keyed(int lane_idx, TimeNs t, std::uint64_t key, EventDesc desc) {
    Lane& lane = lanes_[static_cast<std::size_t>(lane_idx)];
    if (t < lane.now) {
      ++lane.clamped;
      assert(!in_window_ && "mailbox delivery landed behind the destination lane");
      t = lane.now;
    }
    push_event(lane.heap, Event{t, key, desc});
  }

  // Runs events until the queue drains or simulated time would exceed
  // `until`. Returns the number of events processed by this call. For a
  // finite horizon every lane clock lands exactly on `until` (whether or
  // not events remain) — callers stepping the engine in fixed intervals,
  // like the snapshot/digest driver, stay on their grid.
  std::uint64_t run(TimeNs until = std::numeric_limits<TimeNs>::max()) {
    if (shards_ == 1) {
      Lane& lane = lanes_[0];
      std::uint64_t processed = 0;
      while (!lane.heap.empty() && lane.heap.front().time <= until) {
        const Event ev = pop_min(lane.heap);
        lane.now = ev.time;
        dispatch(lane, ev.desc);
        ++processed;
      }
      lane.events += processed;
      if (until != std::numeric_limits<TimeNs>::max() && lane.now < until) lane.now = until;
      return processed;
    }
    return run_sharded(until);
  }

  bool empty() const {
    for (const Lane& lane : lanes_) {
      if (!lane.heap.empty()) return false;
    }
    return true;
  }
  std::size_t pending() const {
    std::size_t n = 0;
    for (const Lane& lane : lanes_) n += lane.heap.size();
    return n;
  }
  std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (const Lane& lane : lanes_) n += lane.events;
    return n;
  }
  std::uint64_t next_seq() const {
    std::uint64_t n = 0;
    for (const Lane& lane : lanes_) n += lane.next_key;
    return n;
  }

  // --- Window hooks (sharded mode) ---
  // lane_drain(lane) runs at the window barrier, on the thread that owns
  // `lane`, after all lanes finished the window: the network drains the
  // lane's incoming mailboxes here. barrier_apply() then runs on the
  // driving thread with all workers parked: the simulator applies
  // cross-shard state ops (flow-table and broadcast bookkeeping) here.
  void set_lane_drain(std::function<void(int)> fn) { lane_drain_ = std::move(fn); }
  void set_barrier_apply(std::function<void()> fn) { barrier_apply_ = std::move(fn); }

  // --- Observability ---
  struct LaneStats {
    TimeNs now = 0;
    std::uint64_t events = 0;    // events executed on this lane
    std::uint64_t clamped = 0;   // past-time schedules clamped to the lane clock
    std::uint64_t windows = 0;   // parallel windows this lane participated in
    std::uint64_t stalls = 0;    // windows in which the lane had no runnable event
  };
  LaneStats lane_stats(int lane) const {
    const Lane& l = lanes_[static_cast<std::size_t>(lane)];
    return LaneStats{l.now, l.events, l.clamped, l.windows, l.stalls};
  }
  // Total past-time clamps across lanes (the satellite obs metric).
  std::uint64_t clamped_schedules() const {
    std::uint64_t n = 0;
    for (const Lane& lane : lanes_) n += lane.clamped;
    return n;
  }
  // Parallel windows executed (0 in serial mode).
  std::uint64_t windows_run() const { return windows_; }
  // Serial phases executed (sharded mode: global-lane turns).
  std::uint64_t serial_phases() const { return serial_phases_; }

  // Events executed per kind, summed over lanes (each lane counts its own
  // at the dispatch point). Slot 0 collects kinds event_kind.h does not
  // name. Observability only: never saved or digested, and they keep
  // accumulating across a restore. All zero with R2C2_TRACING=OFF.
  using KindCounts = std::array<std::uint64_t, kEvKindCount>;
  KindCounts kind_events() const {
    KindCounts total{};
#if R2C2_TRACING_ENABLED
    for (const Lane& lane : lanes_) {
      for (std::size_t k = 0; k < total.size(); ++k) total[k] += lane.kind_events[k];
    }
#endif
    return total;
  }

  // --- Snapshot support (src/snapshot/) ---
  // The "engine" section: per lane the clock, the key counter, the events
  // executed and every pending (time, key, descriptor) entry, in heap-array
  // order. Restoring the identical array preserves both the heap invariant
  // and the exact (time, key) tie-breaking, so a restored engine replays
  // the same event interleaving bit for bit. S is the Engine or a Queue.
  template <class V, class S>
  static void visit(V& v, S& s) {
    v.section("engine", [&] {
      for (auto& lane : s.lanes_) v(lane);
    });
  }
  void save(snapshot::ArchiveWriter& w) const {
    snapshot::Writer writer(w);
    writer(*this);
  }
  void mix_digest(snapshot::Digest& d) const {
    snapshot::Digester digester(d);
    digester(*this);
  }

  // Restores the archived queue in two steps, so a caller can check it
  // against the rest of an archive before anything commits. parse() reads
  // every lane and hands each descriptor to `validate`, which throws
  // SnapshotError on one the dispatcher could not execute; it changes
  // nothing. commit() then replaces the entire engine state.
  class Queue {
    friend class Engine;
    std::vector<Lane> lanes_;
  };
  template <typename Validate>
  Queue parse(snapshot::ArchiveReader& r, Validate&& validate) const {
    Queue q;
    q.lanes_.resize(lanes_.size());
    snapshot::Reader reader(r);
    visit(reader, q);
    for (const Lane& lane : q.lanes_) {
      for (const Event& e : lane.heap) validate(static_cast<const EventDesc&>(e.desc));
    }
    return q;
  }
  void commit(Queue&& q) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      Lane& dst = lanes_[i];
      Lane& src = q.lanes_[i];
      dst.heap = std::move(src.heap);
      dst.now = src.now;
      dst.next_key = src.next_key;
      dst.events = src.events;
      // clamped/windows/stalls and the kind counts are observability-only
      // (not archived): they keep accumulating across a restore.
    }
  }
  template <typename Validate>
  void load(snapshot::ArchiveReader& r, Validate&& validate) {
    commit(parse(r, std::forward<Validate>(validate)));
  }

 private:
  // Each lane is an independent heap + clock. Padded so neighboring
  // lanes' hot cursors don't share a cache line under the worker gang.
  struct alignas(64) Lane {
    std::vector<Event> heap;
    TimeNs now = 0;
    std::uint64_t next_key = 0;  // raw per-lane sequence; encoded on allocation
    std::uint64_t events = 0;
    std::uint64_t clamped = 0;
    std::uint64_t windows = 0;
    std::uint64_t stalls = 0;
#if R2C2_TRACING_ENABLED
    KindCounts kind_events{};
#endif
    template <class V, class S>
    static void visit(V& v, S& s) {
      v(s.now);
      v(s.next_key);
      v(s.events);
      snapshot::seq(v, s.heap);
    }
  };

  class Gang;
  friend class Gang;

  std::uint64_t alloc_key_from(int origin) {
    Lane& lane = lanes_[static_cast<std::size_t>(origin)];
    const std::uint64_t seq = lane.next_key++;
    if (shards_ == 1) return seq;  // legacy single-counter keys
    return (seq << kLaneBits) | static_cast<std::uint64_t>(origin);
  }

  void dispatch([[maybe_unused]] Lane& lane, const EventDesc& ev) {
#if R2C2_TRACING_ENABLED
    ++lane.kind_events[ev.kind < kEvKindCount ? ev.kind : 0];
#endif
    handler_(owner_, ev);
  }

  // Binary min-heap on (time, key). Both sifts move a hole and write the
  // moving entry once. The array they leave is the classic swap-based
  // sift's, which matters: snapshots and digests record heap-array order.
  static void push_event(std::vector<Event>& heap, const Event& ev) {
    std::size_t i = heap.size();
    heap.push_back(ev);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!ev.before(heap[parent])) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = ev;
  }

  static Event pop_min(std::vector<Event>& heap) {
    const Event top = heap.front();
    const Event last = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n == 0) return top;
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap[child + 1].before(heap[child])) ++child;
      if (!heap[child].before(last)) break;
      heap[i] = heap[child];
      i = child;
    }
    heap[i] = last;
    return top;
  }

  // Sharded driver (engine.cpp): alternates serial phases (global lane
  // owns the earliest event) with conservative parallel windows.
  std::uint64_t run_sharded(TimeNs until);
  std::uint64_t serial_phase(TimeNs t);
  std::uint64_t run_lane_until(Lane& lane, TimeNs we);
  void run_window(TimeNs we);
  void ensure_gang();

  std::vector<Lane> lanes_;
  Handler handler_ = nullptr;
  void* owner_ = nullptr;
  int shards_ = 1;
  int workers_ = 1;
  TimeNs lookahead_ = 0;
  int cur_lane_ = 0;        // executing lane when not on a gang thread
  bool in_window_ = false;  // written by the driver, read by workers across barriers
  TimeNs window_we_ = 0;    // exclusive end of the window being run
  std::uint64_t windows_ = 0;
  std::uint64_t serial_phases_ = 0;
  std::function<void(int)> lane_drain_;
  std::function<void()> barrier_apply_;
  std::unique_ptr<Gang> gang_;
};

static_assert(std::is_trivially_copyable_v<Engine::Event> && sizeof(Engine::Event) <= 40);

}  // namespace r2c2::sim
