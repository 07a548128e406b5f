// Closed-loop (burst) workloads: segmentation, exact single-message
// timings, collective makespans, and conservation.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/engine.hpp"

namespace mlid {
namespace {

SimConfig one_lane() {
  SimConfig cfg;
  cfg.num_vls = 1;
  cfg.seed = 41;
  return cfg;
}

TEST(Workload, BuilderShapes) {
  const auto a2a = all_to_all_personalized(8, 256);
  EXPECT_EQ(a2a.size(), 8u * 7u);
  for (const auto& m : a2a) EXPECT_NE(m.src, m.dst);

  const auto gather = gather_to(8, 3, 512);
  EXPECT_EQ(gather.size(), 7u);
  for (const auto& m : gather) EXPECT_EQ(m.dst, 3u);

  const auto scatter = scatter_from(8, 3, 512);
  EXPECT_EQ(scatter.size(), 7u);
  for (const auto& m : scatter) EXPECT_EQ(m.src, 3u);

  const auto ring = ring_shift(8, 1, 128);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring[7].dst, 0u);

  const auto perm = random_permutation(8, 128, 5);
  std::set<NodeId> images;
  for (const auto& m : perm) {
    EXPECT_NE(m.src, m.dst);
    EXPECT_TRUE(images.insert(m.dst).second);
  }
}

TEST(Workload, BuilderValidation) {
  EXPECT_THROW(all_to_all_personalized(1, 256), ContractViolation);
  EXPECT_THROW(gather_to(8, 9, 256), ContractViolation);
  EXPECT_THROW(ring_shift(8, 8, 256), ContractViolation);
  EXPECT_THROW(ring_shift(8, 0, 256), ContractViolation);
  EXPECT_THROW(scatter_from(8, 0, 0), ContractViolation);
}

TEST(Workload, CsvTraceParsing) {
  std::istringstream trace(
      "# comment line\n"
      "\n"
      "0,15,4096\n"
      "  3,7,256\n"
      "1,2,1\n");
  const auto messages = parse_message_csv(trace);
  ASSERT_EQ(messages.size(), 3u);
  EXPECT_EQ(messages[0].src, 0u);
  EXPECT_EQ(messages[0].dst, 15u);
  EXPECT_EQ(messages[0].bytes, 4096u);
  EXPECT_EQ(messages[1].src, 3u);
  EXPECT_EQ(messages[2].bytes, 1u);
}

TEST(Workload, CsvTraceRejectsGarbage) {
  {
    std::istringstream bad("0;15;4096\n");
    EXPECT_THROW(parse_message_csv(bad), ContractViolation);
  }
  {
    std::istringstream bad("0,15\n");
    EXPECT_THROW(parse_message_csv(bad), ContractViolation);
  }
  {
    std::istringstream bad("0,15,0\n");  // empty message
    EXPECT_THROW(parse_message_csv(bad), ContractViolation);
  }
  {
    std::istringstream empty("# nothing here\n");
    EXPECT_TRUE(parse_message_csv(empty).empty());
  }
}

TEST(Workload, MiceElephantsShapeAndSkew) {
  MiceElephantsConfig mix;  // defaults: 8 flows/node, 10% elephants
  const auto flows = mice_elephants(64, mix, 7);
  EXPECT_EQ(flows.size(), 64u * 8u);
  std::uint64_t elephants = 0, mouse_bytes = 0, elephant_bytes = 0;
  for (const auto& m : flows) {
    EXPECT_LT(m.src, 64u);
    EXPECT_LT(m.dst, 64u);
    EXPECT_NE(m.src, m.dst);
    ASSERT_TRUE(m.bytes == mix.mouse_bytes || m.bytes == mix.elephant_bytes)
        << m.bytes;
    if (m.bytes == mix.elephant_bytes) {
      ++elephants;
      elephant_bytes += m.bytes;
    } else {
      mouse_bytes += m.bytes;
    }
  }
  // ~10% of the flows, but the clear majority of the bytes: the skew the
  // mice-elephants scenario is named for.
  EXPECT_NEAR(static_cast<double>(elephants) / static_cast<double>(flows.size()),
              mix.elephant_fraction, 0.05);
  EXPECT_GT(elephant_bytes, 4 * mouse_bytes);
}

TEST(Workload, MiceElephantsIsDeterministicAndSeedKeyed) {
  const MiceElephantsConfig mix;
  const auto a = mice_elephants(32, mix, 123);
  const auto b = mice_elephants(32, mix, 123);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
  const auto c = mice_elephants(32, mix, 124);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs |= a[i].dst != c[i].dst || a[i].bytes != c[i].bytes;
  }
  EXPECT_TRUE(differs);
}

TEST(Burst, MiceElephantsDrainsAndConserves) {
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  MiceElephantsConfig mix;
  mix.flows_per_node = 2;
  mix.mouse_bytes = 256;
  mix.elephant_bytes = 4'096;
  const auto workload = mice_elephants(8, mix, 9);
  std::uint64_t expected_bytes = 0;
  for (const auto& m : workload) expected_bytes += m.bytes;
  SimConfig cfg;
  cfg.seed = 41;
  const BurstResult r =
      Simulation::burst(subnet, cfg, workload).run_to_completion();
  EXPECT_EQ(r.messages, workload.size());
  EXPECT_EQ(r.total_bytes, expected_bytes);
  EXPECT_GT(r.makespan_ns, 0);
  EXPECT_EQ(r.events_processed, r.events_scheduled);
}

TEST(Burst, SingleMessageMatchesTheClosedFormLatency) {
  // One 256-byte message across the full 4-port 2-tree: 3 switches,
  // 3*100 + 4*20 + 256 = 636 ns.
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  Simulation sim = Simulation::burst(subnet, one_lane(), {{0, 7, 256}});
  const BurstResult r = sim.run_to_completion();
  EXPECT_EQ(r.messages, 1u);
  EXPECT_EQ(r.packets, 1u);
  EXPECT_EQ(r.makespan_ns, 636);
  EXPECT_DOUBLE_EQ(r.avg_message_latency_ns, 636.0);
}

TEST(Burst, SegmentedMessagePipelinesAtTheCreditCadence) {
  // A 1024-byte message = 4 MTU segments.  The NIC reinjects every
  // wire + t_fly + t_r + wire + t_fly = 396 ns (single-packet credit loop),
  // so the tail segment leaves at 3*396 and lands 636 ns later: 1824 ns.
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  Simulation sim = Simulation::burst(subnet, one_lane(), {{0, 7, 1024}});
  const BurstResult r = sim.run_to_completion();
  EXPECT_EQ(r.packets, 4u);
  EXPECT_EQ(r.total_bytes, 1024u);
  EXPECT_EQ(r.makespan_ns, 3 * 396 + 636);
}

TEST(Burst, OddSizesSegmentExactly) {
  // 300 bytes -> one 256-byte and one 44-byte segment.
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  Simulation sim = Simulation::burst(subnet, one_lane(), {{0, 1, 300}});
  const BurstResult r = sim.run_to_completion();
  EXPECT_EQ(r.packets, 2u);
  EXPECT_EQ(r.total_bytes, 300u);
  EXPECT_GT(r.makespan_ns, 0);
}

TEST(Burst, AllToAllDrainsAndConserves) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  SimConfig cfg;
  cfg.seed = 41;
  const auto workload = all_to_all_personalized(16, 512);
  Simulation sim = Simulation::burst(subnet, cfg, workload);
  const BurstResult r = sim.run_to_completion();
  EXPECT_EQ(r.messages, 16u * 15u);
  EXPECT_EQ(r.packets, 16u * 15u * 2u);  // 512 B = 2 segments
  EXPECT_EQ(r.total_bytes, 16u * 15u * 512u);
  EXPECT_GT(r.makespan_ns, 0);
  EXPECT_LE(r.avg_message_latency_ns,
            static_cast<double>(r.makespan_ns));
  EXPECT_DOUBLE_EQ(r.max_message_latency_ns,
                   static_cast<double>(r.makespan_ns));
  EXPECT_GT(r.aggregate_bytes_per_ns(), 0.0);
}

TEST(Burst, MlidAllToAllNoSlowerThanSlid) {
  const FatTreeFabric fabric{FatTreeParams(8, 2)};
  const Subnet mlid(fabric, "MLID");
  const Subnet slid(fabric, "SLID");
  const auto workload = all_to_all_personalized(32, 1024);
  SimConfig cfg;
  cfg.seed = 41;
  const SimTime t_mlid =
      Simulation::burst(mlid, cfg, workload).run_to_completion().makespan_ns;
  const SimTime t_slid =
      Simulation::burst(slid, cfg, workload).run_to_completion().makespan_ns;
  EXPECT_LE(t_mlid, static_cast<SimTime>(1.05 * static_cast<double>(t_slid)));
}

TEST(Burst, GatherSerializesOnTheRootLink) {
  // All 7 senders share node 3's terminal link: the makespan is at least
  // the pure serialization of their payloads.
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  Simulation sim = Simulation::burst(subnet, one_lane(), gather_to(8, 3, 512));
  const BurstResult r = sim.run_to_completion();
  EXPECT_GE(r.makespan_ns, 7 * 512);
}

TEST(Burst, Deterministic) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const auto workload = all_to_all_personalized(16, 512);
  SimConfig cfg;
  cfg.seed = 41;
  const BurstResult a = Simulation::burst(subnet, cfg, workload).run_to_completion();
  const BurstResult b = Simulation::burst(subnet, cfg, workload).run_to_completion();
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_DOUBLE_EQ(a.avg_message_latency_ns, b.avg_message_latency_ns);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(Burst, ModeMixupsAreRejected) {
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  Simulation burst = Simulation::burst(subnet, one_lane(), {{0, 1, 256}});
  EXPECT_THROW(burst.run(), ContractViolation);
  Simulation open = Simulation::open_loop(subnet, one_lane(),
                                          {TrafficKind::kUniform, 0, 0, 1},
                                          0.5);
  EXPECT_THROW(open.run_to_completion(), ContractViolation);
  EXPECT_THROW(Simulation::burst(subnet, one_lane(),
                                 std::vector<MessageSpec>{}),
               ContractViolation);
  EXPECT_THROW(Simulation::burst(subnet, one_lane(), {{0, 0, 256}}),
               ContractViolation);
}

}  // namespace
}  // namespace mlid
