// The one-description contract of snapshot/visit.h: every scalar a visit()
// names is both archived and digested. A probe adapter walks a restored
// mid-run simulation (fault, adaptive and tenant scenarios) in visit order and flips one scalar at a time; each
// flip must change both state_digest() and the re-saved archive bytes, and
// flipping it back must restore the digest. Every struct visit the walk
// enters must reach at least one scalar.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <typeindex>
#include <typeinfo>
#include <vector>

#include "common/rng.h"
#include "congestion/waterfill.h"
#include "control/flow_table.h"
#include "obs/metrics.h"
#include "packet/packet.h"
#include "service/service.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "sim/r2c2_sim.h"
#include "snapshot/archive.h"
#include "snapshot/replay.h"
#include "snapshot/visit.h"
#include "transport/reliability.h"

namespace r2c2 {
namespace {

using snapshot::ArchiveReader;
using snapshot::ArchiveWriter;
using snapshot::ReplayConfig;
using snapshot::Scenario;

// Counts the mutable scalars a walk reaches, in visit order, and flips the
// `target`-th one (bool negated, integers and enums xor 1, doubles in their
// lowest mantissa bit, a byte block in its first byte). Sizes, map keys and
// presence flags reach the adapter as constants: they describe containers
// rather than being fields, so they are not counted. A census (no target)
// also records per struct type how many scalars that struct's visit
// reached, nested ones included.
class Flipper {
 public:
  static constexpr bool kLoading = false;

  explicit Flipper(std::int64_t target = -1) : target_(target) {}

  template <class T>
  void operator()(T& x) {
    using U = std::remove_const_t<T>;
    if constexpr (std::is_class_v<U>) {
      if (target_ >= 0) return U::visit(*this, x);
      const std::type_index type(typeid(U));
      reached_.try_emplace(type, 0);
      stack_.push_back(type);
      U::visit(*this, x);
      stack_.pop_back();
    } else if constexpr (!std::is_const_v<T>) {
      if (scalar() == target_) flip(x);
    }
  }
  template <std::size_t N>
  void bytes(std::array<std::uint8_t, N>& b) {
    if (scalar() == target_) b[0] ^= 1;
  }
  template <std::size_t N>
  void bytes(const std::array<std::uint8_t, N>&) {}
  template <class Fn>
  void section(std::string_view, Fn&& fn) {
    fn();
  }
  void require(bool, const char*) {}

  std::int64_t scalars() const { return count_; }
  const std::map<std::type_index, std::int64_t>& reached() const { return reached_; }

 private:
  std::int64_t scalar() {
    for (const std::type_index& type : stack_) ++reached_[type];
    return count_++;
  }
  template <class T>
  static void flip(T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      x = !x;
    } else if constexpr (std::is_enum_v<T>) {
      x = static_cast<T>(static_cast<std::underlying_type_t<T>>(x) ^ 1);
    } else if constexpr (std::is_floating_point_v<T>) {
      x = std::bit_cast<T>(std::bit_cast<std::uint64_t>(x) ^ 1);
    } else {
      x = static_cast<T>(x ^ 1);
    }
  }

  std::int64_t target_;
  std::int64_t count_ = 0;
  std::vector<std::type_index> stack_;
  std::map<std::type_index, std::int64_t> reached_;
};

std::vector<std::uint8_t> save_bytes(const sim::R2c2Sim& s) {
  ArchiveWriter w;
  s.save(w);
  return w.finish();
}

// Walks the restored sim (and its service layer, which sits behind the
// sim's virtual seam) with one probe.
void walk(Flipper& probe, Scenario& scenario) {
  sim::R2c2Sim::walk(probe, scenario.simulator());
  if (service::ServiceLayer* svc = scenario.service()) service::ServiceLayer::visit(probe, *svc);
}

struct Case {
  std::string scenario;
  TimeNs snap_at;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.scenario; }

class EverySavedScalarIsDigested : public ::testing::TestWithParam<Case> {};

TEST_P(EverySavedScalarIsDigested, FlipChangesDigestAndArchive) {
  ReplayConfig cfg;
  cfg.scenario = GetParam().scenario;
  Scenario head(cfg);
  head.simulator().run_until(GetParam().snap_at);
  const std::vector<std::uint8_t> golden = save_bytes(head.simulator());

  Scenario restored(cfg);
  ArchiveReader r(golden);
  restored.simulator().load(r);
  const std::uint64_t base = restored.simulator().state_digest();
  ASSERT_EQ(save_bytes(restored.simulator()), golden);

  Flipper census;
  walk(census, restored);
  ASSERT_GT(census.scalars(), 100);
  std::printf("%s: %lld scalars in %zu struct types\n", cfg.scenario.c_str(),
              static_cast<long long>(census.scalars()), census.reached().size());
  for (const auto& [type, scalars] : census.reached()) {
    EXPECT_GT(scalars, 0) << type.name() << " visit reaches no scalar";
  }

  for (std::int64_t k = 0; k < census.scalars(); ++k) {
    Flipper flip(k);
    walk(flip, restored);
    EXPECT_NE(restored.simulator().state_digest(), base) << "scalar " << k << " is not digested";
    EXPECT_NE(save_bytes(restored.simulator()), golden) << "scalar " << k << " is not archived";
    Flipper unflip(k);
    walk(unflip, restored);
  }
  EXPECT_EQ(restored.simulator().state_digest(), base);
  EXPECT_EQ(save_bytes(restored.simulator()), golden);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, EverySavedScalarIsDigested,
                         ::testing::Values(Case{"fault", 1800 * kNsPerUs},
                                           Case{"adaptive", 760 * kNsPerUs},
                                           Case{"tenant", 780 * kNsPerUs}),
                         [](const auto& info) { return info.param.scenario; });

// Across the three scenarios the walk enters every struct that has a
// visit(), each of which then reached a scalar (checked above). The
// adaptive scenario is the one with gray degradation and congestion marks.
TEST(SnapshotVisit, WalkEntersEveryVisitedStruct) {
  std::set<std::type_index> entered;
  for (const Case& c : {Case{"fault", 1800 * kNsPerUs}, Case{"adaptive", 760 * kNsPerUs},
                        Case{"tenant", 780 * kNsPerUs}}) {
    ReplayConfig cfg;
    cfg.scenario = c.scenario;
    Scenario scenario(cfg);
    scenario.simulator().run_until(c.snap_at);
    Flipper census;
    walk(census, scenario);
    for (const auto& [type, scalars] : census.reached()) entered.insert(type);
  }
  for (const std::type_index& type :
       {std::type_index(typeid(sim::Engine)), std::type_index(typeid(sim::Network)),
        std::type_index(typeid(sim::SimPacket)), std::type_index(typeid(sim::FaultInjector)),
        std::type_index(typeid(sim::FlowRecord)), std::type_index(typeid(sim::RecoveryRecord)),
        std::type_index(typeid(sim::ReorderTracker)), std::type_index(typeid(FlowTable)),
        std::type_index(typeid(FlowSpec)), std::type_index(typeid(RouteCode)),
        std::type_index(typeid(ReliableSender)), std::type_index(typeid(ReliableReceiver)),
        std::type_index(typeid(obs::Histogram)), std::type_index(typeid(Rng)),
        std::type_index(typeid(BroadcastMsg)), std::type_index(typeid(sim::LinkDegrade))}) {
    EXPECT_TRUE(entered.count(type)) << type.name() << " never visited";
  }
}

}  // namespace
}  // namespace r2c2
