// The parallel evaluation plane must be invisible in results: the GA
// returns a bit-identical SelectionResult for every thread count, and the
// fitness memo survives 64-bit hash collisions (keyed lookups compare the
// genotype, not just the hash).
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "control/route_selection.h"
#include "topology/topology.h"

namespace r2c2 {
namespace {

std::vector<FlowSpec> permutation_like_flows(const Topology& topo, int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FlowSpec> flows;
  for (int i = 0; i < n; ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
    do {
      f.dst = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
    } while (f.dst == f.src);
    f.alg = RouteAlg::kRps;
    f.weight = 1.0;
    f.priority = 0;
    f.demand = kUnlimitedDemand;
    flows.push_back(f);
  }
  return flows;
}

void expect_identical(const SelectionResult& a, const SelectionResult& b, int threads) {
  EXPECT_EQ(a.assignment, b.assignment) << "threads=" << threads;
  EXPECT_EQ(a.utility, b.utility) << "threads=" << threads;  // bitwise, not near
  EXPECT_EQ(a.evaluations, b.evaluations) << "threads=" << threads;
}

TEST(ParallelDeterminism, GaIsBitIdenticalAcrossThreadCounts) {
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  const auto flows = permutation_like_flows(topo, 80, 0xfeed);

  SelectionConfig cfg;
  cfg.choices = {RouteAlg::kRps, RouteAlg::kVlb};
  cfg.population = 30;
  cfg.max_generations = 8;
  cfg.stall_generations = 4;
  cfg.seed = 7;

  cfg.threads = 1;
  const SelectionResult serial = select_routes_ga(router, flows, cfg);
  EXPECT_GT(serial.utility, 0.0);
  EXPECT_GT(serial.evaluations, 0);

  std::vector<int> counts{2, 4, 8};
  // CI legs pin an extra count (e.g. the runner's core count) via env.
  if (const char* env = std::getenv("R2C2_TEST_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) counts.push_back(v);
  }
  for (const int threads : counts) {
    cfg.threads = threads;
    expect_identical(select_routes_ga(router, flows, cfg), serial, threads);
  }
}

TEST(ParallelDeterminism, UtilityKindsAreBitIdenticalAcrossThreadCounts) {
  // kMinThroughput and the blended scalarization produce many fitness
  // ties and near-ties, so tournaments and the rank sort lean on exact
  // equality: every lane must score a genotype to the same bits, whatever
  // the thread count.
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  const auto flows = permutation_like_flows(topo, 60, 0x5eed);

  for (const UtilityKind kind : {UtilityKind::kMinThroughput, UtilityKind::kBlended}) {
    SelectionConfig cfg;
    cfg.utility = kind;
    cfg.blend_min_weight = 0.25;
    cfg.population = 24;
    cfg.max_generations = 6;
    cfg.stall_generations = 4;
    cfg.seed = 21;

    cfg.threads = 1;
    const SelectionResult serial = select_routes_ga(router, flows, cfg);
    for (const int threads : {2, 4}) {
      cfg.threads = threads;
      expect_identical(select_routes_ga(router, flows, cfg), serial, threads);
    }
  }
}

TEST(ParallelDeterminism, HybridIsBitIdenticalAcrossThreadCounts) {
  // The memetic local-search step evaluates serially through the memo
  // between parallel generation batches; the interleaving is fixed, so
  // the hybrid inherits the GA's thread-count invariance.
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  const auto flows = permutation_like_flows(topo, 60, 0x4b1d);

  SelectionConfig cfg;
  cfg.population = 24;
  cfg.max_generations = 6;
  cfg.stall_generations = 4;
  cfg.ls_elites = 3;
  cfg.ls_steps = 8;
  cfg.eval_budget = 400;
  cfg.seed = 33;

  cfg.threads = 1;
  const SelectionResult serial = select_routes_hybrid(router, flows, cfg);
  EXPECT_GT(serial.utility, 0.0);
  for (const int threads : {2, 4}) {
    cfg.threads = threads;
    expect_identical(select_routes_hybrid(router, flows, cfg), serial, threads);
  }
}

TEST(ParallelDeterminism, AnnealIgnoresThreadConfig) {
  // Simulated annealing is inherently sequential (each move depends on
  // the last accept); it must give one answer regardless of how the
  // caller configured parallelism.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  const auto flows = permutation_like_flows(topo, 30, 0xa11);

  SelectionConfig cfg;
  cfg.eval_budget = 150;
  cfg.seed = 5;

  cfg.threads = 1;
  const SelectionResult serial = select_routes_anneal(router, flows, cfg);
  cfg.threads = 8;
  expect_identical(select_routes_anneal(router, flows, cfg), serial, 8);
}

TEST(ParallelDeterminism, GaWithTinyMemoStaysBitIdentical) {
  // A memo small enough to evict constantly changes which genotypes get
  // re-solved — but eviction order is fixed by insertion (= dedup) order,
  // which is thread-count independent, so the invariance must survive.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  const auto flows = permutation_like_flows(topo, 40, 0x71e);

  SelectionConfig cfg;
  cfg.population = 20;
  cfg.max_generations = 8;
  cfg.seed = 13;
  cfg.memo_max_entries = 8;  // far below one generation's distinct genotypes

  cfg.threads = 1;
  const SelectionResult serial = select_routes_ga(router, flows, cfg);
  EXPECT_GT(serial.stats.memo_evictions, 0u);
  for (const int threads : {2, 4}) {
    cfg.threads = threads;
    const SelectionResult parallel = select_routes_ga(router, flows, cfg);
    expect_identical(parallel, serial, threads);
    EXPECT_EQ(parallel.stats.memo_evictions, serial.stats.memo_evictions) << threads;
    EXPECT_EQ(parallel.stats.solves, serial.stats.solves) << threads;
  }

  // The budget actually constrains the run: more evaluations than an
  // unbounded memo needs (evicted genotypes recur and are re-solved).
  cfg.threads = 1;
  cfg.memo_max_entries = 0;
  const SelectionResult unbounded = select_routes_ga(router, flows, cfg);
  EXPECT_GT(serial.evaluations, unbounded.evaluations);
  EXPECT_EQ(unbounded.stats.memo_evictions, 0u);
}

TEST(ParallelDeterminism, GaWithExternalPoolMatchesSerial) {
  // Callers may hand the GA a long-lived pool instead of a thread count;
  // the result must not depend on which construction path was taken.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  const auto flows = permutation_like_flows(topo, 40, 0xbee);

  SelectionConfig cfg;
  cfg.choices = {RouteAlg::kRps, RouteAlg::kVlb, RouteAlg::kDor};
  cfg.population = 20;
  cfg.max_generations = 6;
  cfg.seed = 3;

  cfg.threads = 1;
  const SelectionResult serial = select_routes_ga(router, flows, cfg);

  ThreadPool pool(3);
  cfg.pool = &pool;
  expect_identical(select_routes_ga(router, flows, cfg), serial, pool.lanes());
  // The pool actually ran fitness work (not a silent serial fallback).
  EXPECT_GT(pool.stats().executed, 0u);
}

TEST(ParallelDeterminism, SelectionIsIndependentOfPriorRouterUse) {
  // A router warmed by a previous (different) flow set must give the same
  // selection as a cold one: entries are immutable and per-pair, so cache
  // state can never leak between computations.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const auto flows = permutation_like_flows(topo, 30, 0xabc);
  SelectionConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 5;
  cfg.seed = 11;

  const Router cold(topo);
  const SelectionResult from_cold = select_routes_ga(cold, flows, cfg);

  const Router warmed(topo);
  warmed.precompute(RouteAlg::kRps);
  warmed.precompute(RouteAlg::kVlb);
  const SelectionResult from_warm = select_routes_ga(warmed, flows, cfg);
  expect_identical(from_warm, from_cold, 1);
}

TEST(FitnessMemo, CollidingHashesKeepSeparateEntries) {
  // Regression: the memo used to key by the 64-bit FNV hash alone, so two
  // genotypes with colliding hashes silently shared one fitness value.
  // Force a collision by inserting two different genotypes under the SAME
  // hash: lookups must compare the stored genotype and keep both.
  detail::FitnessMemo memo;
  const std::vector<std::uint8_t> a{0, 1, 0, 1};
  const std::vector<std::uint8_t> b{1, 0, 1, 0};
  const std::uint64_t forced_hash = 0x1234;

  memo.insert(forced_hash, a, 10.0);
  ASSERT_NE(memo.find(forced_hash, a), nullptr);
  EXPECT_EQ(*memo.find(forced_hash, a), 10.0);
  // b collides but was never inserted: must be a miss, not a's value.
  EXPECT_EQ(memo.find(forced_hash, b), nullptr);

  memo.insert(forced_hash, b, 20.0);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(*memo.find(forced_hash, a), 10.0);
  EXPECT_EQ(*memo.find(forced_hash, b), 20.0);
}

TEST(FitnessMemo, FifoEvictionRespectsEntryBudget) {
  detail::FitnessMemo memo(/*max_bytes=*/0, /*max_entries=*/2);
  const std::vector<std::uint8_t> a{0}, b{1}, c{2};
  memo.insert(detail::FitnessMemo::hash(a), a, 1.0);
  memo.insert(detail::FitnessMemo::hash(b), b, 2.0);
  EXPECT_EQ(memo.size(), 2u);
  memo.insert(detail::FitnessMemo::hash(c), c, 3.0);  // evicts a (oldest)
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find(detail::FitnessMemo::hash(a), a), nullptr);
  EXPECT_NE(memo.find(detail::FitnessMemo::hash(b), b), nullptr);
  EXPECT_NE(memo.find(detail::FitnessMemo::hash(c), c), nullptr);
  EXPECT_EQ(memo.stats().evictions, 1u);
}

TEST(FitnessMemo, FifoEvictionUnderForcedCollisions) {
  // Colliding entries share one bucket; eviction must remove exactly the
  // oldest *entry* (by insertion sequence), not the whole bucket and not
  // a same-hash newer entry.
  detail::FitnessMemo memo(/*max_bytes=*/0, /*max_entries=*/2);
  const std::vector<std::uint8_t> a{0, 1}, b{1, 0}, c{1, 1};
  const std::uint64_t shared = 0xc011;
  memo.insert(shared, a, 1.0);
  memo.insert(shared, b, 2.0);
  memo.insert(shared, c, 3.0);  // evicts a, keeps b and c in the bucket
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find(shared, a), nullptr);
  ASSERT_NE(memo.find(shared, b), nullptr);
  EXPECT_EQ(*memo.find(shared, b), 2.0);
  ASSERT_NE(memo.find(shared, c), nullptr);
  EXPECT_EQ(*memo.find(shared, c), 3.0);
}

TEST(FitnessMemo, ByteBudgetAccountsOverheadAndKeepsNewestEntry) {
  // Budget below one entry's cost: the just-inserted entry must survive
  // (the memo never evicts down to zero), evicting everything older.
  detail::FitnessMemo memo(/*max_bytes=*/1, /*max_entries=*/0);
  const std::vector<std::uint8_t> a{0}, b{1};
  memo.insert(detail::FitnessMemo::hash(a), a, 1.0);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.bytes(), 1 + detail::FitnessMemo::kEntryOverhead);
  memo.insert(detail::FitnessMemo::hash(b), b, 2.0);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.find(detail::FitnessMemo::hash(a), a), nullptr);
  EXPECT_NE(memo.find(detail::FitnessMemo::hash(b), b), nullptr);
}

TEST(FitnessMemo, StatsCountHitsMissesAndSizes) {
  detail::FitnessMemo memo;
  const std::vector<std::uint8_t> a{7, 7, 7};
  memo.record_miss();
  memo.insert(detail::FitnessMemo::hash(a), a, 4.0);
  memo.record_hit();
  memo.record_hit();
  const auto s = memo.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 3 + detail::FitnessMemo::kEntryOverhead);
}

TEST(FitnessMemo, HashIsOrderSensitiveFnv) {
  const std::vector<std::uint8_t> a{0, 1};
  const std::vector<std::uint8_t> b{1, 0};
  EXPECT_NE(detail::FitnessMemo::hash(a), detail::FitnessMemo::hash(b));
  EXPECT_EQ(detail::FitnessMemo::hash(a), detail::FitnessMemo::hash(a));
}

}  // namespace
}  // namespace r2c2
