// Fault replay: a live-SM run is as bit-deterministic as a pristine one —
// the same seed and fault schedule reproduce every counter exactly — and an
// attached-but-idle SM does not perturb the engine at all.
#include <gtest/gtest.h>

#include "sim/engine.hpp"

namespace mlid {
namespace {

constexpr int kM = 8, kN = 2;

SimConfig window(std::uint64_t seed) {
  SimConfig cfg;
  cfg.warmup_ns = 8'000;
  cfg.measure_ns = 80'000;
  cfg.seed = seed;
  return cfg;
}

FaultSchedule schedule_for(int failures, SimTime fail_at,
                           SimTime recover_at = -1) {
  const FatTreeFabric fabric{FatTreeParams(kM, kN)};
  return FaultSchedule::random_uplink_failures(fabric, failures, fail_at,
                                               /*seed=*/99, recover_at);
}

SimResult run_live(std::string_view kind, std::uint64_t seed,
                   const FaultSchedule& faults) {
  FatTreeFabric fabric{FatTreeParams(kM, kN)};
  const Subnet subnet(fabric, kind);
  SubnetManager sm(fabric, subnet);
  Simulation sim = Simulation::open_loop(subnet, window(seed),
                                         {TrafficKind::kUniform, 0.2, 0, seed},
                                         0.6, {&sm, faults});
  return sim.run();
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.dropped_unroutable, b.dropped_unroutable);
  EXPECT_EQ(a.dropped_dead_link, b.dropped_dead_link);
  EXPECT_EQ(a.dropped_during_convergence, b.dropped_during_convergence);
  EXPECT_EQ(a.drops_post_convergence, b.drops_post_convergence);
  EXPECT_EQ(a.first_fault_ns, b.first_fault_ns);
  EXPECT_EQ(a.sm_converged_ns, b.sm_converged_ns);
  EXPECT_EQ(a.reconvergence_ns, b.reconvergence_ns);
  EXPECT_EQ(a.sm_traps, b.sm_traps);
  EXPECT_EQ(a.sm_sweeps, b.sm_sweeps);
  EXPECT_EQ(a.sm_entries_programmed, b.sm_entries_programmed);
  EXPECT_EQ(a.sm_switches_programmed, b.sm_switches_programmed);
  EXPECT_DOUBLE_EQ(a.avg_latency_ns, b.avg_latency_ns);
  EXPECT_DOUBLE_EQ(a.accepted_bytes_per_ns_per_node,
                   b.accepted_bytes_per_ns_per_node);
  EXPECT_DOUBLE_EQ(a.p99_latency_ns, b.p99_latency_ns);
}

TEST(FaultReplay, SameSeedAndScheduleBitIdentical) {
  const FaultSchedule faults = schedule_for(2, 20'000);
  expect_identical(run_live("MLID", 5, faults),
                   run_live("MLID", 5, faults));
}

TEST(FaultReplay, RecoveryScheduleBitIdentical) {
  const FaultSchedule faults = schedule_for(1, 20'000, 60'000);
  expect_identical(run_live("SLID", 7, faults),
                   run_live("SLID", 7, faults));
}

TEST(FaultReplay, EmptyScheduleIdenticalToUnattachedRun) {
  // An attached SM with nothing to do must not perturb the engine: the run
  // must be bit-identical to one that never heard of the SM, event count
  // included.
  FatTreeFabric fabric{FatTreeParams(kM, kN)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 5};
  const SimResult plain = Simulation::open_loop(subnet, window(5), traffic,
                                                0.6).run();

  SubnetManager sm(fabric, subnet);
  Simulation live =
      Simulation::open_loop(subnet, window(5), traffic, 0.6, {&sm, {}});
  const SimResult attached = live.run();

  expect_identical(plain, attached);
  EXPECT_EQ(attached.packets_dropped, 0u);
  EXPECT_EQ(attached.first_fault_ns, -1);
  EXPECT_EQ(attached.reconvergence_ns, -1);
}

TEST(FaultReplay, ConvergesAndStopsDropping) {
  const FaultSchedule faults = schedule_for(2, 20'000);
  const SimResult r = run_live("MLID", 11, faults);
  EXPECT_EQ(r.first_fault_ns, 20'000);
  EXPECT_GT(r.sm_converged_ns, r.first_fault_ns);
  EXPECT_EQ(r.reconvergence_ns, r.sm_converged_ns - r.first_fault_ns);
  EXPECT_GT(r.sm_sweeps, 0u);
  EXPECT_GT(r.sm_entries_programmed, 0u);
  // Packets die with the link and during the stale-table window, but never
  // among traffic injected after the SM reconverged.
  EXPECT_GT(r.packets_dropped, 0u);
  EXPECT_EQ(r.drops_post_convergence, 0u);
  EXPECT_EQ(r.packets_dropped, r.dropped_unroutable + r.dropped_dead_link +
                                   r.dropped_during_convergence);
}

TEST(FaultReplay, DifferentScheduleSeedsDiffer) {
  const FatTreeFabric fabric{FatTreeParams(kM, kN)};
  const FaultSchedule a =
      FaultSchedule::random_uplink_failures(fabric, 2, 20'000, 1);
  const FaultSchedule b =
      FaultSchedule::random_uplink_failures(fabric, 2, 20'000, 2);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  const bool same_links =
      a.events()[0].dev_a == b.events()[0].dev_a &&
      a.events()[0].port_a == b.events()[0].port_a &&
      a.events()[1].dev_a == b.events()[1].dev_a &&
      a.events()[1].port_a == b.events()[1].port_a;
  EXPECT_FALSE(same_links);
}

// A link that dies under load while a packet is on its wire, then comes
// back: once the SM routes over it again, the revived port transmits.  No
// retry is left pending across the outage; the port relies on the grants
// that reach it after revival.
TEST(FaultReplay, RevivedPortTransmitsAgain) {
  FatTreeFabric fabric{FatTreeParams(kM, kN)};
  const Subnet subnet(fabric, "MLID");
  SubnetManager sm(fabric, subnet);
  const SwitchLabel leaf = SwitchLabel::from_index(fabric.params(), 1, 0);
  const DeviceId dev = fabric.switch_device(leaf.switch_id(fabric.params()));
  const auto port = static_cast<PortId>(fabric.params().half() + 1);
  const PortRef peer = fabric.fabric().peer_of(dev, port);
  constexpr SimTime kFailAt = 29'200;  // a packet left at 29 082 ns
  constexpr SimTime kRecoverAt = 50'000;
  FaultSchedule faults;
  faults.fail_link(kFailAt, fabric.fabric(), dev, port);
  faults.recover_link(kRecoverAt, dev, port, peer.device, peer.port);
  SimConfig cfg = window(3);
  cfg.trace_packets = 1'000'000;  // every packet
  Simulation sim = Simulation::open_loop(
      subnet, cfg, {TrafficKind::kUniform, 0.2, 0, 3}, 0.6, {&sm, faults});
  const SimResult r = sim.run();
  ASSERT_LT(sim.traces().size(), cfg.trace_packets);

  const SimTime wire = cfg.packet_bytes * cfg.byte_time_ns;
  bool on_wire_at_failure = false;
  std::uint64_t sent_after_recovery = 0;
  for (const PacketTraceRecord& rec : sim.traces()) {
    for (const TraceEvent& ev : rec.events) {
      if (ev.point != TracePoint::kForwarded || ev.dev != dev ||
          ev.port != port) {
        continue;
      }
      if (ev.time < kFailAt && ev.time + wire > kFailAt) {
        on_wire_at_failure = true;
      }
      if (ev.time >= kRecoverAt) ++sent_after_recovery;
    }
  }
  EXPECT_TRUE(on_wire_at_failure);
  EXPECT_GT(sent_after_recovery, 0u);
  EXPECT_EQ(r.drops_post_convergence, 0u);
}

TEST(FaultSchedule, RandomUplinkFailuresShape) {
  const FatTreeFabric fabric{FatTreeParams(kM, kN)};
  const FaultSchedule faults =
      FaultSchedule::random_uplink_failures(fabric, 4, 30'000, 9, 70'000);
  ASSERT_EQ(faults.size(), 8u);  // 4 failures + 4 recoveries
  const Fabric& g = fabric.fabric();
  int fails = 0, recovers = 0;
  for (const FaultEvent& ev : faults.events()) {
    EXPECT_EQ(g.device(ev.dev_a).kind(), DeviceKind::kSwitch);
    EXPECT_EQ(g.device(ev.dev_b).kind(), DeviceKind::kSwitch);
    if (ev.fail) {
      ++fails;
      EXPECT_EQ(ev.at, 30'000);
    } else {
      ++recovers;
      EXPECT_EQ(ev.at, 70'000);
    }
  }
  EXPECT_EQ(fails, 4);
  EXPECT_EQ(recovers, 4);
  // events() is time-sorted: all failures precede all recoveries.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(faults.events()[i].fail);
    EXPECT_FALSE(faults.events()[i + 4].fail);
  }
}

TEST(FaultSchedule, FailLinkResolvesPeer) {
  const FatTreeFabric fabric{FatTreeParams(kM, kN)};
  const SwitchLabel leaf = SwitchLabel::from_index(fabric.params(), 1, 0);
  const DeviceId dev =
      fabric.switch_device(leaf.switch_id(fabric.params()));
  const auto port = static_cast<PortId>(fabric.params().half() + 1);
  FaultSchedule faults;
  faults.fail_link(10'000, fabric.fabric(), dev, port);
  ASSERT_EQ(faults.size(), 1u);
  const FaultEvent& ev = faults.events().front();
  const PortRef peer = fabric.fabric().peer_of(dev, port);
  EXPECT_EQ(ev.dev_a, dev);
  EXPECT_EQ(ev.port_a, port);
  EXPECT_EQ(ev.dev_b, peer.device);
  EXPECT_EQ(ev.port_b, peer.port);
}

}  // namespace
}  // namespace mlid
