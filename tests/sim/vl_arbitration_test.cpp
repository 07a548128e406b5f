// Weighted VL arbitration (IBA VLArb) and fairness accounting.
#include <gtest/gtest.h>

#include <numeric>

#include "sim/engine.hpp"

namespace mlid {
namespace {

SimConfig window() {
  SimConfig cfg;
  cfg.warmup_ns = 10'000;
  cfg.measure_ns = 60'000;
  cfg.seed = 91;
  return cfg;
}

TEST(VlArbitration, ConfigValidation) {
  SimConfig cfg = window();
  cfg.num_vls = 2;
  cfg.vl_weights = {3};
  EXPECT_THROW(cfg.validate(), ContractViolation);  // wrong arity
  cfg.vl_weights = {3, 0};
  EXPECT_THROW(cfg.validate(), ContractViolation);  // non-positive
  cfg.vl_weights = {3, 1};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(VlArbitration, UnitWeightsEqualPlainRoundRobin) {
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  SimConfig plain = window();
  plain.num_vls = 2;
  SimConfig weighted = window();
  weighted.num_vls = 2;
  weighted.vl_weights = {1, 1};
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 17};
  const SimResult a = Simulation::open_loop(subnet, plain, traffic, 0.7).run();
  const SimResult b = Simulation::open_loop(subnet, weighted, traffic, 0.7).run();
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_DOUBLE_EQ(a.avg_latency_ns, b.avg_latency_ns);
}

TEST(VlArbitration, WeightsSkewSaturatedLaneThroughput) {
  // Pure hot spot, sources pinned to VLs by parity: both lanes stay
  // backlogged on the terminal link, so service follows the 3:1 weights.
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  SimConfig cfg = window();
  cfg.num_vls = 2;
  cfg.policy.vl_map = "src-mod";
  cfg.vl_weights = {3, 1};
  const TrafficConfig traffic{TrafficKind::kCentric, 1.0, 0, 17};
  const SimResult r = Simulation::open_loop(subnet, cfg, traffic, 0.9).run();
  ASSERT_EQ(r.delivered_per_vl.size(), 2u);
  ASSERT_GT(r.delivered_per_vl[1], 0u);
  const double ratio = static_cast<double>(r.delivered_per_vl[0]) /
                       static_cast<double>(r.delivered_per_vl[1]);
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 4.5);
}

TEST(VlArbitration, PerVlCountsSumToMeasured) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  SimConfig cfg = window();
  cfg.num_vls = 4;
  const SimResult r =
      Simulation::open_loop(subnet, cfg, {TrafficKind::kUniform, 0.2, 0, 17},
                            0.5)
          .run();
  const std::uint64_t sum = std::accumulate(
      r.delivered_per_vl.begin(), r.delivered_per_vl.end(), std::uint64_t{0});
  EXPECT_EQ(sum, r.packets_measured);
  // Random VL policy spreads deliveries over every lane.
  for (const std::uint64_t count : r.delivered_per_vl) EXPECT_GT(count, 0u);
}

TEST(Fairness, UniformTrafficIsFair) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const SimResult r =
      Simulation::open_loop(subnet, window(),
                            {TrafficKind::kUniform, 0.2, 0, 17}, 0.3)
          .run();
  EXPECT_GT(r.jain_fairness_index, 0.9);
  EXPECT_GT(r.min_node_accepted_bytes_per_ns, 0.0);
  EXPECT_GE(r.max_node_accepted_bytes_per_ns,
            r.min_node_accepted_bytes_per_ns);
}

TEST(Fairness, HotSpotSkewsTheIndex) {
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  const SimResult r =
      Simulation::open_loop(subnet, window(),
                            {TrafficKind::kCentric, 1.0, 0, 17}, 0.9)
          .run();
  EXPECT_LT(r.jain_fairness_index, 0.7);
  // The hot node is the max receiver by a wide margin.
  EXPECT_GT(r.max_node_accepted_bytes_per_ns,
            4.0 * r.min_node_accepted_bytes_per_ns);
}

}  // namespace
}  // namespace mlid
