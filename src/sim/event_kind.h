// Descriptor kinds for every engine event the simulators schedule (see
// EventDesc in sim/engine.h). The descriptor is the event: each simulator
// registers one dispatch entry point that switches on the kind, and a
// snapshot stores (time, seq, kind, a, b) for every pending event. The
// operand meaning per kind is documented inline; a kind means the same
// thing in every simulator that schedules it (TcpSim and PfqSim reuse the
// start-flow and link-free kinds). Values are part of the snapshot format
// — add new kinds at the end, never renumber. Kind 0 is never scheduled;
// a restore rejects it.
#pragma once

#include <array>
#include <cstdint>

namespace r2c2::sim {

enum EventKind : std::uint32_t {
  kEvLinkFree = 1,        // a = directed link whose serialization finished
  kEvDeliver = 2,         // a = parked-packet slot, b = receiving node
  kEvStartFlow = 3,       // a = index into the simulator's arrival list
  kEvEmitPacket = 4,      // a = flow id
  kEvRecomputeTick = 5,   // periodic rate recomputation (rho)
  kEvKeepaliveTick = 6,   // per-link liveness probes
  kEvDetectionTick = 7,   // keepalive deadline scan
  kEvLeaseTick = 8,       // periodic flow re-advertisement
  kEvGcTick = 9,          // stale-entry garbage collection
  kEvRebuildContext = 10, // debounced decision-plane rebuild
  kEvFaultApply = 11,     // a = index into the armed FaultScript
  kEvCtrlRetransmit = 12, // a = parked-packet slot, b = directed link
  kEvCongestionTick = 13, // periodic ECN-style congestion sampling (adaptive routing)
  kEvService = 14,        // service-layer timer; a = opcode, b = payload (src/service)
  kEvTcpRto = 15,         // TcpSim retransmission timer; a = flow id, b = timer epoch
  kEvPfqArrive = 16,      // PfqSim arrival; a = in-flight packet slot, b = link crossed
  kEvKindCount
};

// Metric names (engine.kind.<name>.events); slot 0 has none.
inline constexpr std::array<const char*, kEvKindCount> kEventKindNames = {
    nullptr,           "link_free",      "deliver",         "start_flow",
    "emit_packet",     "recompute_tick", "keepalive_tick",  "detection_tick",
    "lease_tick",      "gc_tick",        "rebuild_context", "fault_apply",
    "ctrl_retransmit", "congestion_tick", "service",        "tcp_rto",
    "pfq_arrive",
};

}  // namespace r2c2::sim
