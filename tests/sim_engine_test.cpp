#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <numeric>
#include <type_traits>
#include <vector>

#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "snapshot/archive.h"
#include "snapshot/digest.h"
#include "snapshot/visit.h"
#include "topology/partition.h"
#include "topology/topology.h"

namespace r2c2::sim {
namespace {

// --- Engine ---

// Test kinds: the engine orders and dispatches descriptors without reading
// their kind, so these need not be kinds the simulators define.
constexpr std::uint32_t kTag = 100;    // a = tag appended to the log
constexpr std::uint32_t kChain = 101;  // reschedules itself until a count is reached

// Dispatches every event to a per-test hook and logs the descriptor.
struct Recorder {
  std::vector<EventDesc> seen;
  std::function<void(const EventDesc&)> hook;
  void on_event(const EventDesc& ev) {
    seen.push_back(ev);
    if (hook) hook(ev);
  }
  std::vector<std::uint64_t> tags() const {
    std::vector<std::uint64_t> out;
    for (const EventDesc& ev : seen) out.push_back(ev.a);
    return out;
  }
};

TEST(Engine, EventIsPlainDataOfFortyBytes) {
  static_assert(std::is_trivially_copyable_v<Engine::Event>);
  static_assert(sizeof(Engine::Event) <= 40);
  EXPECT_LE(sizeof(Engine::Event), 40u);
}

TEST(Engine, ProcessesInTimeOrder) {
  Engine e;
  Recorder rec;
  e.set_handler(rec);
  e.schedule_at(30, {kTag, 3, 0});
  e.schedule_at(10, {kTag, 1, 0});
  e.schedule_at(20, {kTag, 2, 0});
  e.run();
  EXPECT_EQ(rec.tags(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesBreakInScheduleOrder) {
  Engine e;
  Recorder rec;
  e.set_handler(rec);
  e.schedule_at(5, {kTag, 1, 0});
  e.schedule_at(5, {kTag, 2, 0});
  e.schedule_at(5, {kTag, 3, 0});
  e.run();
  EXPECT_EQ(rec.tags(), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Engine, OperandsReachTheHandlerIntactThroughHeapMoves) {
  // Enough interleaved events to force sift-up and sift-down moves; every
  // descriptor must come out once, unchanged, in (time, schedule) order.
  Engine e;
  Recorder rec;
  e.set_handler(rec);
  constexpr std::uint64_t kN = 257;
  for (std::uint64_t i = 0; i < kN; ++i) {
    const auto t = static_cast<TimeNs>((i * 7919) % 61);
    e.schedule_at(t, {kTag + static_cast<std::uint32_t>(i % 3), i, ~i});
  }
  e.run();
  ASSERT_EQ(rec.seen.size(), kN);
  std::vector<bool> once(kN, false);
  TimeNs last_t = 0;
  std::uint64_t last_i = 0;
  for (std::size_t n = 0; n < rec.seen.size(); ++n) {
    const EventDesc& ev = rec.seen[n];
    ASSERT_LT(ev.a, kN);
    EXPECT_FALSE(once[ev.a]);
    once[ev.a] = true;
    EXPECT_EQ(ev.kind, kTag + ev.a % 3);
    EXPECT_EQ(ev.b, ~ev.a);
    const auto t = static_cast<TimeNs>((ev.a * 7919) % 61);
    if (n > 0) {
      EXPECT_TRUE(t > last_t || (t == last_t && ev.a > last_i)) << n;
    }
    last_t = t;
    last_i = ev.a;
  }
}

// The archived queue is the heap array itself, so the array a push/pop
// history leaves behind must be the one the classic swap-based binary heap
// leaves: mix_digest of the engine must equal the digest of that
// reference array after the same interleaving of pushes and pops.
TEST(Engine, HeapArrayMatchesSwapBasedReference) {
  struct Ref {
    TimeNs time;
    std::uint64_t key;
    std::uint64_t a;
    bool before(const Ref& o) const { return time != o.time ? time < o.time : key < o.key; }
  };
  std::vector<Ref> ref;
  auto ref_push = [&ref](Ref r) {
    ref.push_back(r);
    for (std::size_t i = ref.size() - 1; i > 0;) {
      const std::size_t p = (i - 1) / 2;
      if (!ref[i].before(ref[p])) break;
      std::swap(ref[i], ref[p]);
      i = p;
    }
  };
  auto ref_pop = [&ref] {
    ref.front() = ref.back();
    ref.pop_back();
    for (std::size_t i = 0;;) {
      const std::size_t l = 2 * i + 1, r = 2 * i + 2;
      std::size_t best = i;
      if (l < ref.size() && ref[l].before(ref[best])) best = l;
      if (r < ref.size() && ref[r].before(ref[best])) best = r;
      if (best == i) break;
      std::swap(ref[i], ref[best]);
      i = best;
    }
  };

  Engine e;
  Recorder rec;
  e.set_handler(rec);
  std::uint64_t key = 0;
  TimeNs horizon = 0;
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t i = 0; i < 37; ++i) {
      const TimeNs t = horizon + static_cast<TimeNs>((key * 2654435761u) % 97);
      e.schedule_at(t, {kTag, key, 0});
      ref_push(Ref{t, key, key});
      ++key;
    }
    horizon += 40;
    e.run(horizon);
    while (!ref.empty() && ref.front().time <= horizon) ref_pop();

    snapshot::Digest want;
    want.mix_i64(horizon);
    want.mix(key);
    want.mix(e.total_events());
    want.mix(ref.size());
    for (const Ref& r : ref) {
      want.mix_i64(r.time);
      want.mix(r.key);
      want.mix(kTag);
      want.mix(r.a);
      want.mix(0);
    }
    snapshot::Digest got;
    e.mix_digest(got);
    ASSERT_EQ(got.value(), want.value()) << "round " << round;
  }
}

TEST(Engine, FunctionPointerHandlerGetsItsContext) {
  Engine e;
  std::uint64_t sum = 0;
  e.set_handler([](void* ctx, const EventDesc& ev) { *static_cast<std::uint64_t*>(ctx) += ev.a; },
                &sum);
  e.schedule_at(1, {kTag, 40, 0});
  e.schedule_at(2, {kTag, 2, 0});
  e.run();
  EXPECT_EQ(sum, 42u);
}

// Satellite determinism check for the sharded engine's mailbox protocol:
// several cross-boundary packets share one arrival timestamp at one
// destination lane; their execution order is fixed by the (time, key)
// stamps allocated at post time, so it must match the 1-worker (serial
// window) order bit for bit at every worker count.
std::vector<std::uint64_t> run_boundary_tie_order(int workers) {
  constexpr int kShards = 8;
  constexpr std::uint32_t kPost = 102;  // a = tag to post to lane 0 at t = 15; b = follow-up tag
  Engine e;
  e.configure_shards(kShards, workers, /*lookahead=*/10);
  struct Mail {
    TimeNs at;
    std::uint64_t key;
    std::uint64_t tag;
  };
  // box[src][dst]: written by the src lane inside the window, drained by
  // the dst lane's owner at the barrier — the same single-writer protocol
  // the network's mailboxes use.
  std::array<std::array<std::vector<Mail>, kShards>, kShards> box{};
  std::vector<std::uint64_t> delivered;  // appended only by lane 0 events
  e.set_lane_drain([&](int dst) {
    for (int src = 0; src < kShards; ++src) {
      auto& cell = box[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)];
      for (const Mail& m : cell) e.schedule_keyed(dst, m.at, m.key, {kTag, m.tag, 0});
      cell.clear();
    }
  });
  // Lanes run this concurrently: it touches only the executing lane's
  // mailbox row, and lane 0 alone appends to `delivered`.
  auto handle = [&](const EventDesc& ev) {
    if (ev.kind == kTag) {
      delivered.push_back(ev.a);
      return;
    }
    const auto src = static_cast<std::size_t>(e.current_lane());
    box[src][0].push_back({15, e.alloc_key(), ev.a});
    if (ev.b != 0) e.schedule_at(6, {kPost, ev.b, 0});
  };
  e.set_handler([](void* h, const EventDesc& ev) { (*static_cast<decltype(handle)*>(h))(ev); },
                &handle);
  // Three boundary packets from three shards, all arriving on lane 0 at
  // t = 15; lane 5 posts a second one from a later event in the same
  // window (a later per-lane sequence number, so it sorts last).
  e.schedule_on(1, 5, {kPost, 101, 0});
  e.schedule_on(3, 5, {kPost, 103, 0});
  e.schedule_on(5, 5, {kPost, 105, 205});
  e.run();
  return delivered;
}

TEST(Engine, BoundaryPacketTieOrderMatchesSerialAtEveryWorkerCount) {
  const std::vector<std::uint64_t> want = run_boundary_tie_order(1);
  // Keys sort by (origin sequence, origin lane): the same-time ties land
  // in origin-lane order, with the later post from lane 5 last.
  EXPECT_EQ(want, (std::vector<std::uint64_t>{101, 103, 105, 205}));
  for (const int workers : {2, 4, 8}) {
    EXPECT_EQ(run_boundary_tie_order(workers), want) << "workers=" << workers;
  }
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  Recorder rec;
  rec.hook = [&](const EventDesc& ev) {
    if (ev.a < 4) e.schedule_in(10, {kChain, ev.a + 1, 0});
  };
  e.set_handler(rec);
  e.schedule_at(0, {kChain, 0, 0});
  e.run();
  EXPECT_EQ(rec.seen.size(), 5u);
  EXPECT_EQ(e.now(), 40);
}

TEST(Engine, RunUntilStopsEarly) {
  Engine e;
  Recorder rec;
  e.set_handler(rec);
  e.schedule_at(10, {kTag, 1, 0});
  e.schedule_at(100, {kTag, 2, 0});
  e.run(50);
  EXPECT_EQ(rec.seen.size(), 1u);
  EXPECT_FALSE(e.empty());
  EXPECT_EQ(e.now(), 50);  // the clock lands on the horizon
}

TEST(Engine, PastSchedulingClampsToNow) {
  Engine e;
  TimeNs seen = -1;
  Recorder rec;
  rec.hook = [&](const EventDesc& ev) {
    if (ev.a == 1) {
      e.schedule_at(10, {kTag, 2, 0});  // in the past
    } else {
      seen = e.now();
    }
  };
  e.set_handler(rec);
  e.schedule_at(50, {kTag, 1, 0});
  e.run();
  EXPECT_EQ(seen, 50);
  // Clamps are no longer silent: the per-lane counter records each one.
  EXPECT_EQ(e.clamped_schedules(), 1u);
  EXPECT_EQ(e.lane_stats(0).clamped, 1u);
}

TEST(Engine, CountsEvents) {
  Engine e;
  Recorder rec;
  e.set_handler(rec);
  for (int i = 0; i < 7; ++i) e.schedule_at(i, {kTag, 0, 0});
  e.run();
  EXPECT_EQ(e.total_events(), 7u);
}

TEST(Engine, CountsEventsPerKindAcrossLanes) {
  Engine e;
  e.configure_shards(2, 1, /*lookahead=*/10);
  Recorder rec;
  e.set_handler(rec);
  for (int i = 0; i < 3; ++i) e.schedule_on(0, i, {kEvDeliver, 0, 0});
  for (int i = 0; i < 2; ++i) e.schedule_on(1, i, {kEvDeliver, 0, 0});
  e.schedule_on(1, 3, {kEvLinkFree, 0, 0});
  e.schedule_on(e.global_lane(), 1, {kEvRecomputeTick, 0, 0});
  e.schedule_on(0, 4, {kTag, 0, 0});  // a kind event_kind.h does not name
  e.run();
  ASSERT_EQ(e.total_events(), 8u);
  const Engine::KindCounts counts = e.kind_events();
#if R2C2_TRACING_ENABLED
  EXPECT_EQ(counts[kEvDeliver], 5u);
  EXPECT_EQ(counts[kEvLinkFree], 1u);
  EXPECT_EQ(counts[kEvRecomputeTick], 1u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}), e.total_events());
#else
  EXPECT_EQ(counts, Engine::KindCounts{});
#endif
}

// --- Network ---

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : topo_(make_torus({4}, 10 * kGbps, 100)) {}

  SimPacket data_packet(const Path& path, std::uint32_t bytes) {
    SimPacket p;
    p.type = PacketType::kData;
    p.flow = 1;
    p.src = path.front();
    p.dst = path.back();
    p.payload = bytes - static_cast<std::uint32_t>(DataHeader::kWireSize);
    p.wire_bytes = bytes;
    p.route = encode_path(topo_, path);
    return p;
  }

  Topology topo_;
};

TEST_F(NetworkTest, SerializationPlusPropagationDelay) {
  Engine e;
  Network net(e, topo_, {});
  e.set_handler(net);
  TimeNs arrival = -1;
  NodeId where = kInvalidNode;
  net.set_deliver([&](NodeId at, SimPacket&&) {
    arrival = e.now();
    where = at;
  });
  net.forward(0, data_packet({0, 1}, 1500));
  e.run();
  // 1500 B at 10 Gbps = 1200 ns, plus 100 ns propagation.
  EXPECT_EQ(arrival, 1300);
  EXPECT_EQ(where, 1);
}

TEST_F(NetworkTest, MultiHopForwarding) {
  Engine e;
  Network net(e, topo_, {});
  e.set_handler(net);
  TimeNs arrival = -1;
  net.set_deliver([&](NodeId at, SimPacket&& p) {
    if (p.ridx < p.route.length()) {
      net.forward(at, std::move(p));
    } else {
      arrival = e.now();
    }
  });
  net.forward(0, data_packet({0, 1, 2}, 1500));
  e.run();
  EXPECT_EQ(arrival, 2 * 1300);
}

TEST_F(NetworkTest, QueueingDelaysBackToBackPackets) {
  Engine e;
  Network net(e, topo_, {});
  e.set_handler(net);
  std::vector<TimeNs> arrivals;
  net.set_deliver([&](NodeId, SimPacket&&) { arrivals.push_back(e.now()); });
  net.forward(0, data_packet({0, 1}, 1500));
  net.forward(0, data_packet({0, 1}, 1500));
  e.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 1200);  // one serialization time apart
}

TEST_F(NetworkTest, FiniteBufferDropsData) {
  Engine e;
  Network net(e, topo_, {.data_buffer_bytes = 3000, .control_priority = false});
  e.set_handler(net);
  int delivered = 0, dropped = 0;
  net.set_deliver([&](NodeId, SimPacket&&) { ++delivered; });
  net.set_drop([&](NodeId, const SimPacket&) { ++dropped; });
  // First packet starts transmitting immediately (not queued); the buffer
  // then holds two more.
  for (int i = 0; i < 5; ++i) net.forward(0, data_packet({0, 1}, 1500));
  e.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(net.drops(), 2u);
}

TEST_F(NetworkTest, ControlPacketsBypassDataQueue) {
  Engine e;
  Network net(e, topo_, {.data_buffer_bytes = 0, .control_priority = true});
  e.set_handler(net);
  std::vector<PacketType> order;
  net.set_deliver([&](NodeId, SimPacket&& p) { order.push_back(p.type); });
  net.forward(0, data_packet({0, 1}, 1500));  // starts transmitting
  net.forward(0, data_packet({0, 1}, 1500));  // queued
  SimPacket ctrl;
  ctrl.type = PacketType::kFlowStart;
  ctrl.wire_bytes = 16;
  const LinkId link = topo_.find_link(0, 1);
  net.send_on_link(link, std::move(ctrl));
  e.run();
  ASSERT_EQ(order.size(), 3u);
  // The control packet overtakes the queued data packet.
  EXPECT_EQ(order[1], PacketType::kFlowStart);
  EXPECT_EQ(net.total_control_bytes_sent(), 16u);
}

TEST_F(NetworkTest, MaxQueueTracksHighWaterMark) {
  Engine e;
  Network net(e, topo_, {});
  e.set_handler(net);
  net.set_deliver([](NodeId, SimPacket&&) {});
  for (int i = 0; i < 4; ++i) net.forward(0, data_packet({0, 1}, 1500));
  e.run();
  const auto snapshot = net.max_queue_snapshot();
  // Three packets queued behind the first one transmitting.
  EXPECT_EQ(snapshot[topo_.find_link(0, 1)], 3u * 1500);
}

// A sharded network parks a mailed packet in a slot that does not depend
// on where run_until cut the windows. Node 1 (lane 0) sends packet A to
// node 2 (lane 1) at 0 and packet B at 150; A lands at 180, inside the
// window in which B is posted. Run straight, B is drained at that
// window's end, after A's slot was freed at 180 — but a mailed packet may
// only reuse a slot freed by its posting time (150), which every horizon
// sequence has freed by then; a cut at 160 drains B before A lands. Both
// runs end with the same slot table and free lists.
TEST_F(NetworkTest, ShardedMailSlotsIgnoreRunUntilHorizons) {
  constexpr std::uint32_t kSend = 100;  // a = sending node, b = destination
  const auto run = [this](bool cut) {
    Engine e;
    Network net(e, topo_, {});
    const ShardPlan plan = make_shard_plan(topo_, 2);
    EXPECT_EQ(plan.lane(1), 0);
    EXPECT_EQ(plan.lane(2), 1);
    e.configure_shards(plan.shards, 1, plan.min_cross_latency);
    net.set_shard_plan(plan);
    e.set_lane_drain([&net](int lane) { net.drain_mailbox(lane); });
    net.set_deliver([](NodeId, SimPacket&&) {});
    Recorder driver;
    driver.hook = [&](const EventDesc& ev) {
      if (ev.kind != kSend) return net.on_event(ev);
      SimPacket p;
      p.type = PacketType::kFlowStart;
      p.wire_bytes = 100;  // 80 ns at 10 Gbps, then 100 ns propagation
      net.send_on_link(topo_.find_link(static_cast<NodeId>(ev.a), static_cast<NodeId>(ev.b)),
                       std::move(p));
    };
    e.set_handler(driver);
    e.schedule_on(0, 0, {kSend, 1, 2});
    e.schedule_on(0, 150, {kSend, 1, 2});
    if (cut) e.run(160);
    e.run();
    snapshot::ArchiveWriter w;
    snapshot::Writer writer(w);
    writer(net);
    return w.finish();
  };
  EXPECT_EQ(run(false), run(true));
}

// --- ReorderTracker ---

TEST(ReorderTracker, InOrderNeverBuffers) {
  ReorderTracker t;
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(t.on_packet(i), 0u);
  EXPECT_EQ(t.max_depth(), 0u);
}

TEST(ReorderTracker, OutOfOrderBuffersAndDrains) {
  ReorderTracker t;
  EXPECT_EQ(t.on_packet(1), 1u);
  EXPECT_EQ(t.on_packet(2), 2u);
  EXPECT_EQ(t.on_packet(0), 0u);  // gap filled, buffer drains
  EXPECT_EQ(t.max_depth(), 2u);
}

TEST(ReorderTracker, DuplicatesIgnored) {
  ReorderTracker t;
  t.on_packet(0);
  EXPECT_EQ(t.on_packet(0), 0u);
  EXPECT_EQ(t.on_packet(1), 0u);
}

TEST(ReorderTracker, InterleavedGaps) {
  ReorderTracker t;
  t.on_packet(2);
  t.on_packet(4);
  t.on_packet(0);
  EXPECT_EQ(t.on_packet(1), 1u);  // drains 2, keeps 4
  EXPECT_EQ(t.on_packet(3), 0u);  // drains 4
  EXPECT_EQ(t.max_depth(), 2u);
}

// --- FlowRecord ---

TEST(FlowRecord, ThroughputFromFct) {
  FlowRecord r;
  r.bytes = 1'000'000;
  r.arrival = 0;
  r.completed = 8 * kNsPerMs;  // 8 Mbit in 8 ms = 1 Gbps
  EXPECT_TRUE(r.finished());
  EXPECT_NEAR(r.throughput_bps(), 1e9, 1e3);
}

TEST(FlowRecord, SelectorsSplitBySize) {
  RunMetrics m;
  FlowRecord small;
  small.bytes = 10 * 1024;
  small.arrival = 0;
  small.completed = 1000;
  FlowRecord big;
  big.bytes = 10 << 20;
  big.arrival = 0;
  big.completed = kNsPerMs;
  FlowRecord unfinished;
  unfinished.bytes = 5;
  m.flows = {small, big, unfinished};
  EXPECT_EQ(m.short_flow_fct_us().size(), 1u);
  EXPECT_EQ(m.long_flow_tput_gbps().size(), 1u);
}

}  // namespace
}  // namespace r2c2::sim
