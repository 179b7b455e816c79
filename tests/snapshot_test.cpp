// The snapshot subsystem (src/snapshot/): archive container hardening,
// engine event-queue round trips, generator/stack state capture, and the
// headline guarantee — a simulation resumed from a snapshot continues
// bit-identically (per-tick digests and final metrics) to the run that was
// never interrupted, for the fault-injection and GA-selection scenarios at
// 1 and 4 threads.
#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <fstream>
#include <ostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/broadcast.h"
#include "r2c2/stack.h"
#include "sim/engine.h"
#include "sim/event_kind.h"
#include "snapshot/archive.h"
#include "snapshot/digest.h"
#include "snapshot/replay.h"
#include "topology/topology.h"

namespace r2c2 {
namespace {

using sim::Engine;
using sim::EventDesc;
using snapshot::ArchiveReader;
using snapshot::ArchiveWriter;
using snapshot::Digest;
using snapshot::DigestLog;
using snapshot::ReplayConfig;
using snapshot::ReplayResult;
using snapshot::Scenario;
using snapshot::SnapshotError;

// --- Archive container -----------------------------------------------------

TEST(Archive, ScalarAndSectionRoundTrip) {
  ArchiveWriter w;
  w.begin_section("alpha");
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.str("hello, rack");
  w.end_section();
  w.begin_section("beta");
  const std::vector<std::uint8_t> blob{1, 2, 3, 4, 5};
  w.bytes(blob);
  w.end_section();

  ArchiveReader r(w.finish());
  EXPECT_TRUE(r.has_section("alpha"));
  EXPECT_TRUE(r.has_section("beta"));
  EXPECT_FALSE(r.has_section("gamma"));

  // Sections are random access: read beta first.
  r.open_section("beta");
  std::vector<std::uint8_t> out(5);
  r.bytes(out);
  EXPECT_EQ(out, blob);
  r.close_section();

  r.open_section("alpha");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "hello, rack");
  EXPECT_EQ(r.remaining(), 0u);
  r.close_section();
}

TEST(Archive, StrictConsumptionAndMissingSections) {
  ArchiveWriter w;
  w.begin_section("s");
  w.u32(7);
  w.u32(8);
  w.end_section();
  const std::vector<std::uint8_t> bytes = w.finish();

  {
    ArchiveReader r(bytes);
    r.open_section("s");
    r.u32();
    EXPECT_THROW(r.close_section(), SnapshotError);  // under-read
  }
  {
    ArchiveReader r(bytes);
    r.open_section("s");
    r.u32();
    r.u32();
    EXPECT_THROW(r.u32(), SnapshotError);  // over-read
  }
  {
    ArchiveReader r(bytes);
    EXPECT_THROW(r.open_section("nope"), SnapshotError);
  }
  EXPECT_THROW(ArchiveReader(std::vector<std::uint8_t>{}), SnapshotError);
}

TEST(Archive, RejectsWrongVersion) {
  ArchiveWriter w;
  w.begin_section("s");
  w.u8(1);
  w.end_section();
  std::vector<std::uint8_t> bytes = w.finish();
  bytes[8] ^= 0x02;  // format-version field follows the 8-byte magic
  EXPECT_THROW(ArchiveReader(std::move(bytes)), SnapshotError);
}

// --- Digests ---------------------------------------------------------------

TEST(Digest, OrderSensitive) {
  Digest a, b;
  a.mix(1);
  a.mix(2);
  b.mix(2);
  b.mix(1);
  EXPECT_NE(a.value(), b.value());
}

TEST(DigestLog, FileRoundTripAndFirstDivergence) {
  DigestLog log;
  log.record(100, 0xdeadbeefULL);
  log.record(200, 0x0123456789abcdefULL);
  log.record(300, 0x1ULL);
  const std::string path = ::testing::TempDir() + "digest_log_test.txt";
  ASSERT_TRUE(log.write_file(path));
  const DigestLog back = DigestLog::read_file(path);
  ASSERT_EQ(back.points.size(), 3u);
  EXPECT_EQ(back.points, log.points);
  EXPECT_EQ(DigestLog::first_divergence(log, back), -1);

  DigestLog other = log;
  other.points[1].digest ^= 1;
  EXPECT_EQ(DigestLog::first_divergence(log, other), 1);
  DigestLog prefix = log;
  prefix.points.pop_back();
  EXPECT_EQ(DigestLog::first_divergence(log, prefix), -1);  // prefix, not divergence
}

// --- Engine event-queue round trip ----------------------------------------

TEST(EngineSnapshot, PendingQueueRoundTripsAndReplaysIdentically) {
  // Two engines execute the same schedule; one is serialized midway and
  // restored into a third. The restored engine must replay the exact
  // remaining interleaving, including (time, seq) ties.
  constexpr std::uint32_t kKind = 42;
  struct Log {
    std::vector<std::uint64_t> order;
    void on_event(const EventDesc& ev) { order.push_back(ev.a); }
  };
  auto scheduled = [](Engine& e) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      e.schedule_at(static_cast<TimeNs>(10 * (i % 3)), EventDesc{kKind, i, 0});
    }
  };
  Log ref_log;
  Engine ref;
  ref.set_handler(ref_log);
  scheduled(ref);
  ref.run();

  Log src_log;
  Engine src;
  src.set_handler(src_log);
  scheduled(src);
  src.run(5);  // partial: only the t=0 events fired
  ArchiveWriter w;
  src.save(w);

  Log restored_log = src_log;
  Engine restored;
  restored.set_handler(restored_log);
  ArchiveReader r(w.finish());
  restored.load(r, [](const EventDesc& d) {
    if (d.kind != kKind) throw SnapshotError("unknown kind");
  });
  EXPECT_EQ(restored.now(), src.now());
  EXPECT_EQ(restored.pending(), src.pending());
  EXPECT_EQ(restored.next_seq(), src.next_seq());
  restored.run();
  EXPECT_EQ(restored_log.order, ref_log.order);
  EXPECT_EQ(restored.total_events(), ref.total_events());
}

TEST(EngineSnapshot, RejectedDescriptorLeavesTheEngineUntouched) {
  // The validator rejects the last archived event; load() must throw with
  // the engine's clock, counters and queue exactly as they were.
  struct Sink {
    void on_event(const EventDesc&) {}
  } sink;
  Engine src;
  src.set_handler(sink);
  for (std::uint64_t i = 0; i < 5; ++i) src.schedule_at(static_cast<TimeNs>(i), {7, i, 0});
  ArchiveWriter w;
  src.save(w);
  const std::vector<std::uint8_t> bytes = w.finish();

  Engine e;
  e.set_handler(sink);
  e.schedule_at(3, {7, 99, 0});
  e.run(2);
  Digest before;
  e.mix_digest(before);
  ArchiveReader r(bytes);
  EXPECT_THROW(e.load(r,
                      [](const EventDesc& d) {
                        if (d.a == 4) throw SnapshotError("rejected");
                      }),
               SnapshotError);
  Digest after;
  e.mix_digest(after);
  EXPECT_EQ(after.value(), before.value());
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.now(), 2);
}

// --- R2c2Stack state capture ----------------------------------------------

struct MiniRack {
  Topology topo = make_torus({2, 2}, 10 * kGbps, 100);
  Router router{topo};
  BroadcastTrees trees{topo, 2};
  RackContext ctx;
  std::deque<std::pair<NodeId, std::vector<std::uint8_t>>> wire;
  std::vector<std::unique_ptr<R2c2Stack>> stacks;

  MiniRack() {
    ctx.topo = &topo;
    ctx.router = &router;
    ctx.trees = &trees;
    ctx.lease_interval = 50 * kNsPerUs;
    ctx.lease_ttl = 200 * kNsPerUs;
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      R2c2Stack::Callbacks cb;
      cb.send_control = [this](NodeId next, std::vector<std::uint8_t> bytes) {
        wire.emplace_back(next, std::move(bytes));
      };
      stacks.push_back(std::make_unique<R2c2Stack>(n, ctx, std::move(cb)));
    }
  }
  void pump() {
    while (!wire.empty()) {
      auto [node, bytes] = std::move(wire.front());
      wire.pop_front();
      stacks[node]->on_control_packet(bytes);
    }
  }
};

TEST(StackSnapshot, RoundTripContinuesIdentically) {
  MiniRack rack;
  const FlowId f0 = rack.stacks[0]->open_flow(3);
  rack.stacks[0]->open_flow(2, {.alg = RouteAlg::kVlb, .weight = 2.0});
  rack.stacks[1]->open_flow(0);
  rack.pump();
  rack.stacks[0]->tick(60 * kNsPerUs);
  rack.pump();
  rack.stacks[0]->note_backlog(f0, 4096);
  rack.stacks[0]->recompute();
  rack.pump();
  R2c2Stack& original = *rack.stacks[0];

  ArchiveWriter w;
  original.save(w, "node0");
  const std::vector<std::uint8_t> bytes = w.finish();

  // Restore into a stack built with a *different* seed: every draw must
  // come from the restored RNG state, not the constructor's.
  std::vector<std::vector<std::uint8_t>> restored_wire;
  R2c2Stack::Callbacks cb;
  cb.send_control = [&restored_wire](NodeId, std::vector<std::uint8_t> b) {
    restored_wire.push_back(std::move(b));
  };
  R2c2Stack restored(0, rack.ctx, std::move(cb), /*seed=*/987654321);
  ArchiveReader r(bytes);
  restored.load(r, "node0");

  Digest da, db;
  original.mix_digest(da);
  restored.mix_digest(db);
  EXPECT_EQ(da.value(), db.value());
  EXPECT_EQ(restored.view().view_hash(), original.view().view_hash());
  EXPECT_EQ(restored.own_flows(), original.own_flows());
  EXPECT_EQ(restored.now(), original.now());

  // Same next operation on both -> same flow id, same bytes on the wire,
  // same state afterwards.
  rack.wire.clear();
  const FlowId next_orig = original.open_flow(1, {.weight = 3.0});
  const FlowId next_rest = restored.open_flow(1, {.weight = 3.0});
  EXPECT_EQ(next_orig, next_rest);
  std::vector<std::vector<std::uint8_t>> original_wire;
  while (!rack.wire.empty()) {
    original_wire.push_back(std::move(rack.wire.front().second));
    rack.wire.pop_front();
  }
  EXPECT_EQ(original_wire, restored_wire);
  Digest da2, db2;
  original.mix_digest(da2);
  restored.mix_digest(db2);
  EXPECT_EQ(da2.value(), db2.value());
}

// --- Full simulation snapshots ---------------------------------------------

ReplayConfig scenario_config(const std::string& scenario, int threads) {
  ReplayConfig cfg;
  cfg.scenario = scenario;
  cfg.threads = threads;
  cfg.seed = 11;
  cfg.digest_every = 20 * kNsPerUs;
  return cfg;
}

// Serializes a mid-run simulator of the given scenario and returns the
// archive bytes plus the grid-aligned time it was taken at.
std::pair<std::vector<std::uint8_t>, TimeNs> golden_snapshot(const ReplayConfig& cfg,
                                                             TimeNs snap_at) {
  Scenario scenario(cfg);
  scenario.simulator().run_until(snap_at);
  ArchiveWriter w;
  scenario.simulator().save(w);
  return {w.finish(), snap_at};
}

TEST(SimSnapshot, LoadRejectsWrongConfigAndUsedSims) {
  const ReplayConfig cfg = scenario_config("fault", 1);
  const auto [bytes, snap_at] = golden_snapshot(cfg, 400 * kNsPerUs);

  {
    // Same scenario family, different seed: the config fingerprint differs.
    ReplayConfig other = cfg;
    other.seed = 12;
    Scenario wrong(other);
    ArchiveReader r(bytes);
    EXPECT_THROW(wrong.simulator().load(r), SnapshotError);
  }
  {
    // A simulator that already ran refuses to load.
    Scenario used(cfg);
    used.simulator().run_until(100 * kNsPerUs);
    ArchiveReader r(bytes);
    EXPECT_THROW(used.simulator().load(r), SnapshotError);
  }
}

TEST(SimSnapshot, SaveLoadSaveIsByteIdentical) {
  const ReplayConfig cfg = scenario_config("fault", 1);
  const auto [bytes, snap_at] = golden_snapshot(cfg, 400 * kNsPerUs);

  Scenario fresh(cfg);
  ArchiveReader r(bytes);
  fresh.simulator().load(r);
  ArchiveWriter w;
  fresh.simulator().save(w);
  EXPECT_EQ(w.finish(), bytes);
}

// The corrupt-input sweep: every truncation and every probed bit flip of a
// golden snapshot must be rejected cleanly — a SnapshotError, never UB, and
// never a partially mutated simulator.
TEST(SimSnapshot, TruncationAndBitFlipSweepRejectedWithoutPartialMutation) {
  const ReplayConfig cfg = scenario_config("fault", 1);
  const auto [bytes, snap_at] = golden_snapshot(cfg, 400 * kNsPerUs);
  ASSERT_GT(bytes.size(), 1000u);

  // Sanity: the intact archive loads.
  {
    Scenario fresh(cfg);
    ArchiveReader r(bytes);
    fresh.simulator().load(r);
  }

  // Truncations: the reader authenticates the whole file up front, so every
  // cut fails at construction.
  for (std::size_t keep = 0; keep < bytes.size();
       keep += std::max<std::size_t>(1, bytes.size() / 41)) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(ArchiveReader{std::move(cut)}, SnapshotError) << "kept " << keep << " bytes";
  }

  // Bit flips, probing every region of the file. Payload flips are caught
  // by the per-section checksums at construction; header/table flips fail
  // construction or surface as a missing/mismatched section in load() —
  // before the simulator commits anything.
  std::size_t flips = 0, caught_in_ctor = 0, caught_in_load = 0;
  for (std::size_t pos = 0; pos < bytes.size(); pos += 97, ++flips) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    try {
      ArchiveReader r(std::move(corrupt));
      Scenario fresh(cfg);
      const std::uint64_t before = fresh.simulator().state_digest();
      try {
        fresh.simulator().load(r);
        FAIL() << "undetected bit flip at byte " << pos;
      } catch (const SnapshotError&) {
        ++caught_in_load;
        // The failed load left the simulator untouched.
        EXPECT_EQ(fresh.simulator().state_digest(), before) << "partial mutation, byte " << pos;
      }
    } catch (const SnapshotError&) {
      ++caught_in_ctor;
    }
  }
  EXPECT_EQ(caught_in_ctor + caught_in_load, flips);
  EXPECT_GT(caught_in_ctor, 0u);  // checksums did real work
}

// Re-seals `bytes` with the first pending event of the engine section
// replaced by `ev` (same time and key, so the heap stays well-formed);
// every other section is copied verbatim.
std::vector<std::uint8_t> with_first_event(const std::vector<std::uint8_t>& bytes,
                                           const EventDesc& ev) {
  ArchiveReader r(bytes);
  ArchiveWriter w;
  for (const std::string& tag : r.section_tags()) {
    r.open_section(tag);
    w.begin_section(tag);
    if (tag == "engine") {
      bool replaced = false;
      while (r.remaining() > 0) {
        w.i64(r.i64());  // lane clock
        w.u64(r.u64());  // key counter
        w.u64(r.u64());  // events executed
        const std::uint64_t count = r.u64();
        w.u64(count);
        for (std::uint64_t i = 0; i < count; ++i) {
          w.i64(r.i64());
          w.u64(r.u64());
          EventDesc d{r.u32(), r.u64(), r.u64()};
          if (!replaced) d = ev;
          replaced = true;
          w.u32(d.kind);
          w.u64(d.a);
          w.u64(d.b);
        }
      }
      EXPECT_TRUE(replaced) << "no pending event to replace";
    } else {
      std::vector<std::uint8_t> payload(r.remaining());
      r.bytes(payload);
      w.bytes(payload);
    }
    r.close_section();
    w.end_section();
  }
  return w.finish();
}

struct BadEvent {
  std::string name;
  std::string scenario;
  EventDesc ev;
};

// Printed into the registered test name: the case name only, never bytes
// of the object (its strings' heap addresses change from run to run).
void PrintTo(const BadEvent& bad, std::ostream* os) { *os << bad.name; }

class BadEventRejected : public ::testing::TestWithParam<BadEvent> {};

// A well-formed archive whose queue holds one descriptor the dispatcher
// could not execute is rejected with a SnapshotError, before anything
// commits: the simulator's state digest is unchanged.
TEST_P(BadEventRejected, WithoutPartialMutation) {
  const BadEvent& bad = GetParam();
  const ReplayConfig cfg = scenario_config(bad.scenario, 1);
  const auto [bytes, snap_at] = golden_snapshot(cfg, 400 * kNsPerUs);
  {
    // The re-sealing itself is faithful: an unchanged first event gives
    // back the golden bytes, which load.
    ArchiveReader golden(bytes);
    golden.open_section("engine");
    golden.i64();
    golden.u64();
    golden.u64();
    ASSERT_GT(golden.u64(), 0u);
    golden.i64();
    golden.u64();
    const EventDesc first{golden.u32(), golden.u64(), golden.u64()};
    ASSERT_EQ(with_first_event(bytes, first), bytes);
  }
  Scenario fresh(cfg);
  const std::uint64_t before = fresh.simulator().state_digest();
  ArchiveReader r(with_first_event(bytes, bad.ev));
  EXPECT_THROW(fresh.simulator().load(r), SnapshotError);
  EXPECT_EQ(fresh.simulator().state_digest(), before);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, BadEventRejected,
    ::testing::Values(
        BadEvent{"LinkOutOfRange", "fault", {sim::kEvLinkFree, 1u << 20, 0}},
        BadEvent{"DeliverFromEmptySlot", "fault", {sim::kEvDeliver, 1u << 20, 0}},
        BadEvent{"RetransmitFromEmptySlot", "fault", {sim::kEvCtrlRetransmit, 1u << 20, 0}},
        BadEvent{"RetransmitOnUnknownLink", "fault", {sim::kEvCtrlRetransmit, 0, 1u << 20}},
        BadEvent{"BadArrivalIndex", "fault", {sim::kEvStartFlow, 1u << 20, 0}},
        BadEvent{"BadFaultIndex", "fault", {sim::kEvFaultApply, 1u << 20, 0}},
        BadEvent{"FaultEventWithoutInjector", "ga", {sim::kEvFaultApply, 0, 0}},
        BadEvent{"ServiceEventWithoutLayer", "fault", {sim::kEvService, 0, 0}},
        BadEvent{"ServiceEventBadTenant", "tenant", {sim::kEvService, 0, 1u << 20}},
        BadEvent{"ServiceEventBadOpcode", "tenant", {sim::kEvService, 1u << 20, 0}},
        BadEvent{"KindZero", "fault", {0, 0, 0}},
        BadEvent{"TransportKindOfAnotherSimulator", "fault", {sim::kEvTcpRto, 1, 1}},
        BadEvent{"UnknownKind", "fault", {sim::kEvKindCount + 7, 0, 0}}),
    [](const auto& info) { return info.param.name; });

// --- The headline acceptance test ------------------------------------------
// Straight-through run vs save-at-k / load-in-fresh-context / resume: the
// per-tick digest trail, the final state digest and the full RunMetrics must
// be bit-identical — fault-injection and GA-selection scenarios, 1 and 4
// threads. The scenario name is a std::string, not a const char*, so the
// printed parameter (and hence the registered test name) carries no address.

class ResumeBitIdentical : public ::testing::TestWithParam<std::pair<std::string, int>> {};

TEST_P(ResumeBitIdentical, DigestsAndMetricsMatchStraightRun) {
  const auto& [name, threads] = GetParam();
  const ReplayConfig cfg = scenario_config(name, threads);

  Scenario straight(cfg);
  const ReplayResult full = straight.run();
  ASSERT_GE(full.digests.points.size(), 4u);
  const TimeNs end = full.digests.points.back().at;
  const TimeNs snap_at = (end / 2 / cfg.digest_every) * cfg.digest_every;
  ASSERT_GT(snap_at, 0);

  const auto [bytes, at] = golden_snapshot(cfg, snap_at);

  // If a CI job wants the snapshot as a failure artifact, park a copy.
  if (const char* dir = std::getenv("R2C2_SNAPSHOT_ARTIFACT_DIR")) {
    const std::string path = std::string(dir) + "/golden-" + name + "-t" +
                             std::to_string(threads) + ".snap";
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  Scenario fresh(cfg);
  ArchiveReader r(bytes);
  fresh.simulator().load(r);
  ASSERT_EQ(fresh.simulator().now(), snap_at);

  // The restored state digest equals the straight-through digest at snap_at.
  for (const auto& p : full.digests.points) {
    if (p.at == snap_at) {
      EXPECT_EQ(fresh.simulator().state_digest(), p.digest);
    }
  }

  const ReplayResult tail = fresh.run();
  DigestLog expected;
  for (const auto& p : full.digests.points) {
    if (p.at > snap_at) expected.points.push_back(p);
  }
  EXPECT_EQ(DigestLog::first_divergence(expected, tail.digests), -1);
  ASSERT_EQ(expected.points.size(), tail.digests.points.size());
  EXPECT_EQ(tail.final_digest, full.final_digest);
  EXPECT_EQ(tail.metrics_digest, full.metrics_digest);
  EXPECT_EQ(tail.metrics.sim_end, full.metrics.sim_end);
  ASSERT_EQ(tail.metrics.flows.size(), full.metrics.flows.size());
  for (std::size_t i = 0; i < full.metrics.flows.size(); ++i) {
    EXPECT_EQ(tail.metrics.flows[i].completed, full.metrics.flows[i].completed) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ResumeBitIdentical,
                         ::testing::Values(std::make_pair(std::string("fault"), 1),
                                           std::make_pair(std::string("fault"), 4),
                                           std::make_pair(std::string("ga"), 1),
                                           std::make_pair(std::string("ga"), 4)),
                         [](const auto& info) {
                           return info.param.first + "_t" +
                                  std::to_string(info.param.second);
                         });

// GA thread counts must not merely each be self-consistent: 1-thread and
// 4-thread GA scenarios are the *same* run (Section 3.4's deterministic
// parallel fitness evaluation), so their digests agree across thread counts.
TEST(SimSnapshot, GaScenarioIdenticalAcrossThreadCounts) {
  Scenario one(scenario_config("ga", 1));
  Scenario four(scenario_config("ga", 4));
  const ReplayResult a = one.run();
  const ReplayResult b = four.run();
  EXPECT_EQ(DigestLog::first_divergence(a.digests, b.digests), -1);
  EXPECT_EQ(a.digests.points.size(), b.digests.points.size());
  EXPECT_EQ(a.final_digest, b.final_digest);
  EXPECT_EQ(a.metrics_digest, b.metrics_digest);
}

}  // namespace
}  // namespace r2c2
