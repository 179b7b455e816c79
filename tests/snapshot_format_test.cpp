// Pins the snapshot archive format and each replay scenario's outcome to
// constants. For every tools/replay scenario (seed 13) the test snapshots
// the run at its midpoint digest-grid point, hashes the archive bytes,
// resumes the snapshot in a fresh scenario and digests the final metrics.
// Both values must equal the recorded constants: a refactor of the
// save/load/digest code that changes a single archived byte, or any
// behaviour of the simulator, fails here.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "snapshot/archive.h"
#include "snapshot/digest.h"
#include "snapshot/replay.h"

namespace r2c2 {
namespace {

using snapshot::ArchiveReader;
using snapshot::ArchiveWriter;
using snapshot::ReplayConfig;
using snapshot::ReplayResult;
using snapshot::Scenario;

// 64-bit FNV-1a over the archive bytes.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Pinned {
  std::string scenario;
  TimeNs snap_at;
  std::uint64_t archive_hash;
  std::uint64_t metrics_digest;
};

void PrintTo(const Pinned& p, std::ostream* os) { *os << p.scenario; }

class SnapshotFormatPinned : public ::testing::TestWithParam<Pinned> {};

TEST_P(SnapshotFormatPinned, ArchiveBytesAndResumedMetricsMatchConstants) {
  const Pinned& pin = GetParam();
  ReplayConfig cfg;
  cfg.scenario = pin.scenario;
  cfg.seed = 13;

  // The midpoint digest-grid point of the straight run.
  Scenario straight(cfg);
  const ReplayResult full = straight.run();
  ASSERT_GE(full.digests.points.size(), 4u);
  const TimeNs end = full.digests.points.back().at;
  const TimeNs snap_at = (end / 2 / cfg.digest_every) * cfg.digest_every;
  EXPECT_EQ(snap_at, pin.snap_at);

  Scenario head(cfg);
  head.simulator().run_until(snap_at);
  ArchiveWriter w;
  head.simulator().save(w);
  const std::vector<std::uint8_t> bytes = w.finish();
  const std::uint64_t hash = fnv1a(bytes);

  Scenario tail(cfg);
  ArchiveReader r(bytes);
  tail.simulator().load(r);
  const ReplayResult resumed = tail.run();

  std::printf("%s: snap_at=%" PRId64 " bytes=%zu archive_hash=0x%016" PRIx64
              " metrics_digest=0x%016" PRIx64 "\n",
              pin.scenario.c_str(), snap_at, bytes.size(), hash, resumed.metrics_digest);
  EXPECT_EQ(hash, pin.archive_hash);
  EXPECT_EQ(resumed.metrics_digest, pin.metrics_digest);
  EXPECT_EQ(full.metrics_digest, pin.metrics_digest);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SnapshotFormatPinned,
    ::testing::Values(
        Pinned{"fault", 1800 * kNsPerUs, 0x232dfe554a781e9eULL, 0xe8084d90336b997bULL},
        Pinned{"ga", 280 * kNsPerUs, 0x919274e3d668cb31ULL, 0xc148b70a25bbebb4ULL},
        Pinned{"adaptive", 760 * kNsPerUs, 0x9543b4fdb001838bULL, 0x1093399914dc3bfeULL},
        Pinned{"tenant", 780 * kNsPerUs, 0xeef99f08ed5aa68cULL, 0xa47a4388ebfd37d8ULL}),
    [](const auto& info) { return info.param.scenario; });

}  // namespace
}  // namespace r2c2
