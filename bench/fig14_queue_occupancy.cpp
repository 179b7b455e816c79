// Figure 14: median and 99th percentile of the maximum queue occupancy
// across all R2C2 node queues, vs flow inter-arrival time. Also prints the
// Section 5.2 reorder-buffer statistics (95th percentile / max packets at
// tau = 1 us; paper: 30 / 51).
//
// Paper shape: for tau >= 1 us the p99 stays below ~27 KB with a sub-packet
// median; at tau = 100 ns queues grow an order of magnitude (p99 330.6 KB,
// median 3.8 KB) because periodic recomputation lags the burst rate.
// This build at default scale grows far less: from tau = 1 us to 100 ns
// the p99 goes 14.7 -> 20.1 KB and the max 67 -> 170 KB (see
// EXPERIMENTS.md, Figure 14).
#include <iostream>

#include "bench_common.h"

using namespace r2c2;
using namespace r2c2::bench;

int main() {
  const Topology& topo = rack512();
  const Router& router = router512();
  std::printf("== Figure 14: max queue occupancy across all R2C2 queues, vs tau ==\n\n");

  Table table({"tau", "flows", "median KB", "p99 KB", "max KB"});
  struct Point {
    TimeNs tau;
    std::size_t flows;
    const char* label;
  };
  const Point points[] = {{100, scaled(3000), "100 ns"},
                          {1 * kNsPerUs, scaled(3000), "1 us"},
                          {10 * kNsPerUs, scaled(2000), "10 us"},
                          {100 * kNsPerUs, scaled(800), "100 us"}};
  for (const Point& p : points) {
    const auto flows = paper_workload(topo, p.flows, p.tau);
    const auto m = run_r2c2(topo, router, flows);
    const auto q = to_doubles(m.max_queue_bytes);
    table.add_row(p.label, p.flows, percentile(q, 50) / 1024.0, percentile(q, 99) / 1024.0,
                  percentile(q, 100) / 1024.0);

    if (p.tau == 1 * kNsPerUs) {
      std::vector<double> reorder;
      for (const auto& f : m.flows) reorder.push_back(f.max_reorder_pkts);
      std::printf("reorder buffer at tau = 1 us: p95 = %.0f pkts, max = %.0f pkts "
                  "(paper: 30 / 51)\n\n",
                  percentile(reorder, 95), percentile(reorder, 100));
    }
  }
  table.print(std::cout);
  std::printf("\nshape check: for tau >= 1 us the p99 stays below the paper's 27 KB;\n"
              "at tau = 100 ns (the recomputation-lag regime) occupancy grows, but not\n"
              "by the paper's order of magnitude (p99 27 -> 330.6 KB). Default scale\n"
              "here: p99 14.7 -> 20.1 KB, max 67 -> 170 KB from 1 us to 100 ns.\n");
  return 0;
}
