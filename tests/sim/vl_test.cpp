// Virtual lanes: policy behaviour, equivalence of degenerate configs, and
// the throughput benefit extra lanes give under contention.
#include <gtest/gtest.h>

#include "sim/engine.hpp"

namespace mlid {
namespace {

SimConfig window() {
  SimConfig cfg;
  cfg.warmup_ns = 10'000;
  cfg.measure_ns = 50'000;
  cfg.seed = 77;
  return cfg;
}

/// Everything on VL0: a many-lane run then degenerates to a single lane.
/// Test-local, registered through the open VL-map registry.
class Vl0Map final : public VlMapPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "vl0";
  }
  [[nodiscard]] VlId assign(const VlRequest& /*req*/,
                            Xoshiro256& /*rng*/) const override {
    return 0;
  }
};

TEST(VirtualLanes, Fixed0WithManyLanesEqualsOneLane) {
  // Pinning everything to VL0 must reproduce the 1-VL run bit-exactly:
  // the VL map draws from a stream independent of destination draws.
  if (!VlMapRegistry::instance().contains("vl0")) {
    VlMapRegistry::instance().add("vl0", [] {
      return std::unique_ptr<VlMapPolicy>(std::make_unique<Vl0Map>());
    });
  }
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  SimConfig one = window();
  one.num_vls = 1;
  SimConfig four = window();
  four.num_vls = 4;
  four.policy.vl_map = "vl0";
  const TrafficConfig traffic{TrafficKind::kUniform, 0, 0, 15};
  const SimResult a = Simulation::open_loop(subnet, one, traffic, 0.6).run();
  const SimResult b = Simulation::open_loop(subnet, four, traffic, 0.6).run();
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_DOUBLE_EQ(a.avg_latency_ns, b.avg_latency_ns);
  EXPECT_DOUBLE_EQ(a.accepted_bytes_per_ns_per_node,
                   b.accepted_bytes_per_ns_per_node);
}

TEST(VirtualLanes, MoreLanesHelpUnderHotSpot) {
  // Observation 3/4 territory: with SLID and a strong hot spot, extra VLs
  // add buffering and reduce head-of-line blocking, raising throughput.
  const FatTreeFabric fabric{FatTreeParams(8, 2)};
  const Subnet subnet(fabric, "SLID");
  const TrafficConfig traffic{TrafficKind::kCentric, 0.3, 0, 15};
  SimConfig one = window();
  one.num_vls = 1;
  SimConfig four = window();
  four.num_vls = 4;
  const double t1 =
      Simulation::open_loop(subnet, one, traffic, 0.8).run()
          .accepted_bytes_per_ns_per_node;
  const double t4 =
      Simulation::open_loop(subnet, four, traffic, 0.8).run()
          .accepted_bytes_per_ns_per_node;
  EXPECT_GT(t4, t1 * 0.98);  // at minimum not worse; typically clearly better
}

TEST(VirtualLanes, PolicyMappingsAreHonoured) {
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  // Behavioural smoke test: simulations complete and deliver on every
  // production VL map that needs no tenants.
  for (const char* vl_map : {"random", "src-mod", "dest-mod", "flow-hash"}) {
    SimConfig cfg = window();
    cfg.num_vls = 4;
    cfg.policy.vl_map = vl_map;
    Simulation sim = Simulation::open_loop(subnet, cfg,
                                           {TrafficKind::kUniform, 0, 0, 15},
                                           0.5);
    const SimResult r = sim.run();
    EXPECT_GT(r.packets_measured, 100u) << vl_map;
    EXPECT_EQ(r.packets_dropped, 0u) << vl_map;
  }
}

TEST(VirtualLanes, RandomMapSpreadsPacketsOverEveryLane) {
  // The paper's setting: each packet draws its lane at random, so under
  // uniform traffic every lane carries about a quarter of the packets.
  const FatTreeFabric fabric{FatTreeParams(8, 2)};
  const Subnet subnet(fabric, "MLID");
  SimConfig cfg = window();
  cfg.num_vls = 4;
  ASSERT_EQ(cfg.policy.vl_map, "random");  // the default
  const SimResult r = Simulation::open_loop(
                          subnet, cfg, {TrafficKind::kUniform, 0, 0, 15}, 0.5)
                          .run();
  ASSERT_EQ(r.delivered_per_vl.size(), 4u);
  const double quarter = static_cast<double>(r.packets_measured) / 4.0;
  for (std::size_t vl = 0; vl < 4; ++vl) {
    EXPECT_NEAR(static_cast<double>(r.delivered_per_vl[vl]), quarter,
                0.15 * quarter)
        << "vl " << vl;
  }
}

TEST(VirtualLanes, AtOneLaneEveryMapIsTheSameRun) {
  // With one lane every map answers VL0.  The random map still draws from
  // its own per-source stream, which nothing else reads, so drawing or not
  // drawing must not move a single packet.
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0, 0, 15};
  SimConfig base = window();
  base.num_vls = 1;
  const SimResult want = Simulation::open_loop(subnet, base, traffic, 0.6).run();
  EXPECT_GT(want.packets_measured, 100u);
  for (const char* vl_map : {"src-mod", "dest-mod", "flow-hash"}) {
    SimConfig cfg = base;
    cfg.policy.vl_map = vl_map;
    const SimResult r = Simulation::open_loop(subnet, cfg, traffic, 0.6).run();
    EXPECT_EQ(r.packets_generated, want.packets_generated) << vl_map;
    EXPECT_EQ(r.packets_measured, want.packets_measured) << vl_map;
    EXPECT_DOUBLE_EQ(r.avg_latency_ns, want.avg_latency_ns) << vl_map;
    EXPECT_DOUBLE_EQ(r.accepted_bytes_per_ns_per_node,
                     want.accepted_bytes_per_ns_per_node)
        << vl_map;
  }
}

TEST(VirtualLanes, ConfigRejectsBadLaneCounts) {
  SimConfig cfg;
  cfg.num_vls = 0;
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.num_vls = 16;
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.num_vls = 15;
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace mlid
