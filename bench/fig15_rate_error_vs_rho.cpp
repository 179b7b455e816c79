// Figure 15: median and 95th percentile of the normalized difference
// between each flow's average assigned rate under recomputation interval
// rho and under the ideal rho = 0 (recompute at every flow event), at
// tau = 1 us.
//
// Paper shape: the error grows with rho; at rho in [500 us, 1 ms] the
// median difference stays within ~8.2% (95th percentile ~37.9%) — the
// sweet spot between fidelity and recomputation cost (cf. Fig. 8).
// This build at default scale: the error grows up to rho = 500 us and
// then levels off, not monotone (median 1.683, 1.763, 1.697, 1.706% at
// rho = 0.5, 1, 2, 5 ms; p95 33.33% -> 33.01% from 0.5 to 1 ms).
#include <iostream>

#include "bench_common.h"

using namespace r2c2;
using namespace r2c2::bench;

int main() {
  const Topology& topo = rack512();
  const Router& router = router512();
  const auto flows = paper_workload(topo, scaled(4000), 500 /*ns*/);
  std::printf("== Figure 15: rate error vs recomputation interval rho (tau = 0.5 us) ==\n");
  std::printf("512-node 3D torus, %zu flows; reference: rho = 0 (per-event)\n\n", flows.size());

  const auto run_with_rho = [&](TimeNs rho) {
    sim::R2c2SimConfig cfg;
    cfg.recompute_interval = rho;
    return run_r2c2(topo, router, flows, cfg);
  };
  const auto ideal = run_with_rho(0);

  Table table({"rho", "median err %", "p95 err %", "flows with err"});
  for (const TimeNs rho : {50 * kNsPerUs, 100 * kNsPerUs, 200 * kNsPerUs, 500 * kNsPerUs,
                           1000 * kNsPerUs, 2000 * kNsPerUs, 5000 * kNsPerUs}) {
    const auto m = run_with_rho(rho);
    std::vector<double> err;
    std::size_t affected = 0;
    for (std::size_t i = 0; i < m.flows.size(); ++i) {
      const double ref = ideal.flows[i].avg_assigned_rate_bps;
      if (ref <= 0) continue;
      const double e = 100.0 * std::abs(m.flows[i].avg_assigned_rate_bps - ref) / ref;
      err.push_back(e);
      affected += (e >= 0.5);
    }
    char label[32];
    std::snprintf(label, sizeof label, "%lld us", static_cast<long long>(rho / kNsPerUs));
    char frac[32];
    std::snprintf(frac, sizeof frac, "%.0f%%", 100.0 * static_cast<double>(affected) /
                                          static_cast<double>(err.size()));
    table.add_row(label, percentile(err, 50), percentile(err, 95), frac);
  }
  table.print(std::cout);
  std::printf("\nshape check: error grows with rho up to 500 us and then levels off;\n"
              "from 0.5 to 5 ms it is not monotone (default scale: median 1.68-1.76%%,\n"
              "p95 32.9-33.3%%). Paper: grows with rho, 8.2%% median / 37.9%% p95 at\n"
              "rho = 500 us - 1 ms. Roughly half the flows are never bottlenecked and\n"
              "see identical rates under any rho, which pulls the median toward zero\n"
              "at this scaled-down utilization.\n");
  return 0;
}
