// Ablation A10: QoS via VL weights.  Two traffic classes share the fabric:
// a latency-critical class pinned to VL0 and a bulk background class on
// VL1 (kBySource parity split as a stand-in for SL-based classification).
// Sweeping the VL0:VL1 arbitration weight shows the latency isolation the
// IBA VLArb mechanism buys the critical class.
#include <cstdio>
#include <string>

#include "common/text_table.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace mlid;
  const CliOptions opts(argc, argv);
  BenchReport report(bench_name_from_path(argv[0]), opts);
  const int m = 4, n = 3;
  const FatTreeFabric fabric{FatTreeParams(m, n)};
  const Subnet subnet(fabric, "MLID");

  std::printf("Ablation A10: VL-weight QoS, %d-port %d-tree, uniform traffic"
              " at offered load 0.9\n", m, n);
  std::puts("(even-PID nodes inject on VL0 = critical, odd on VL1 = bulk)");
  TextTable table({"VL0:VL1 weight", "VL0 delivered", "VL1 delivered",
                   "share VL0", "VL0 lat ns", "VL1 lat ns"});
  for (const int w0 : {1, 2, 4, 8}) {
    SimConfig cfg;
    cfg.num_vls = 2;
    cfg.policy.vl_map = "src-mod";  // parity-based classes
    cfg.vl_weights = {w0, 1};
    // Depth > 1 so per-VL credits don't force strict alternation (with
    // single-packet buffers a VL is never eligible twice in a row and the
    // arbiter has nothing to weigh).
    cfg.in_buf_pkts = 4;
    cfg.out_buf_pkts = 4;
    cfg.seed = opts.seed();
    if (opts.quick()) {
      cfg.warmup_ns = 5'000;
      cfg.measure_ns = 20'000;
    }
    Simulation sim = Simulation::open_loop(subnet, cfg,
                                           {TrafficKind::kUniform, 0.2, 0, opts.seed() ^ 0xABAu},
                                           0.9);
    const SimResult r = sim.run();
    report.add("weights=" + std::to_string(w0) + ":1", r);
    const double total = static_cast<double>(r.delivered_per_vl[0] +
                                             r.delivered_per_vl[1]);
    table.add_row({std::to_string(w0) + ":1",
                   std::to_string(r.delivered_per_vl[0]),
                   std::to_string(r.delivered_per_vl[1]),
                   TextTable::num(
                       static_cast<double>(r.delivered_per_vl[0]) / total, 3),
                   TextTable::num(r.avg_latency_per_vl_ns[0], 1),
                   TextTable::num(r.avg_latency_per_vl_ns[1], 1)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::puts("\nExpected shape: the critical class's delivered share and"
            " latency improve with its\nweight and plateau once it is no"
            " longer arbitration-limited; the bulk class pays\nthe"
            " difference.");
  std::printf("\n(wrote %s)\n", report.write().c_str());
  return 0;
}
