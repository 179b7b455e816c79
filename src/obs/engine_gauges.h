// Per-shard engine gauges for the sharded parallel event engine.
//
// Gauges are observability-only: they live in the MetricsRegistry and are
// never folded into RunMetrics or any determinism digest, so publishing
// them cannot perturb bit-identity checks across worker counts.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace r2c2::obs {

struct EngineLaneSample {
  std::uint64_t events = 0;          // events executed on this lane
  std::uint64_t window_stalls = 0;   // windows in which the lane was idle
  std::uint64_t mailbox_posted = 0;  // cross-shard packets this lane posted
  std::uint64_t mailbox_peak = 0;    // deepest single drain into this lane
};

// Publishes engine-wide window/clamp totals plus one gauge family per lane
// (engine.lane<N>.{events,window_stalls,mailbox_posted,mailbox_peak}).
// Name construction allocates; callers invoke this from cold paths only
// (end-of-run metrics collection).
inline void publish_engine_lanes(MetricsRegistry& m, std::span<const EngineLaneSample> lanes,
                                 std::uint64_t windows, std::uint64_t serial_phases,
                                 std::uint64_t clamped_schedules) {
  m.gauge("engine.windows").set(static_cast<double>(windows));
  m.gauge("engine.serial_phases").set(static_cast<double>(serial_phases));
  m.gauge("engine.clamped_schedules").set(static_cast<double>(clamped_schedules));
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const std::string prefix = "engine.lane" + std::to_string(i) + ".";
    m.gauge(prefix + "events").set(static_cast<double>(lanes[i].events));
    m.gauge(prefix + "window_stalls").set(static_cast<double>(lanes[i].window_stalls));
    m.gauge(prefix + "mailbox_posted").set(static_cast<double>(lanes[i].mailbox_posted));
    m.gauge(prefix + "mailbox_peak").set(static_cast<double>(lanes[i].mailbox_peak));
  }
}

// Publishes engine.kind.<name>.events: events executed per event kind,
// summed over lanes. `names[k]` names kind k (null: not published). The
// counts are compiled out with R2C2_TRACING=OFF, and so is this.
inline void publish_engine_kinds([[maybe_unused]] MetricsRegistry& m,
                                 [[maybe_unused]] std::span<const char* const> names,
                                 [[maybe_unused]] std::span<const std::uint64_t> events) {
#if R2C2_TRACING_ENABLED
  for (std::size_t k = 0; k < names.size() && k < events.size(); ++k) {
    if (names[k] == nullptr) continue;
    m.gauge(std::string("engine.kind.") + names[k] + ".events")
        .set(static_cast<double>(events[k]));
  }
#endif
}

}  // namespace r2c2::obs
