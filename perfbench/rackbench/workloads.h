// The benchmark's four workloads. Each is built from a seed (inputs are
// generated up front, outside every timed region) and then run in whole
// rounds; a round rebuilds the rack from scratch, so every round pays the
// same set-up and carries the same simulated trajectory.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace rackbench {

class Workload {
 public:
  virtual ~Workload() = default;
  // One-line make-up of the inputs, printed at the start of a run.
  virtual std::string describe() const = 0;
  // One complete round. With spans enabled the round is traced: spans are
  // recorded around every call into the program, the event loop is driven
  // in run_until slices, and per-layer figures are filled in.
  virtual RoundResult round(Spans& spans) = 0;
};

std::vector<std::string> workload_names();
// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace rackbench
