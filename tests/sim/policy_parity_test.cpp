// Forwarding/VL-map policy subsystem: registry semantics, selection-rule
// unit tests, and the bit-determinism contracts -- the deterministic policy
// is the engine's historical hot path (parity suites elsewhere pin that),
// and the adaptive policy must itself be bit-reproducible across shard
// counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/expect.hpp"
#include "harness/report.hpp"
#include "parallel/sharded.hpp"
#include "routing/adaptive.hpp"
#include "sim/engine.hpp"

namespace mlid {
namespace {

// ---- registries -----------------------------------------------------------

TEST(PolicyRegistry, SeedPoliciesAreRegistered) {
  EXPECT_TRUE(ForwardingPolicyRegistry::instance().contains("deterministic"));
  EXPECT_TRUE(ForwardingPolicyRegistry::instance().contains("adaptive"));
  for (const char* vl_map :
       {"random", "src-mod", "dest-mod", "flow-hash", "tenant"}) {
    EXPECT_TRUE(VlMapRegistry::instance().contains(vl_map)) << vl_map;
  }
  EXPECT_FALSE(VlMapRegistry::instance().contains("none"));
  // Case-insensitive like the scheme registry.
  EXPECT_TRUE(ForwardingPolicyRegistry::instance().contains("Adaptive"));
  EXPECT_FALSE(ForwardingPolicyRegistry::instance().contains("bogus"));
}

TEST(PolicyRegistry, UnknownNamesThrowWithTheListing) {
  try {
    (void)make_forwarding_policy("bogus");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("deterministic"), std::string::npos) << what;
  }
  EXPECT_THROW((void)make_vl_map_policy("bogus"), ContractViolation);
  PolicyConfig bad;
  bad.forwarding = "bogus";
  EXPECT_THROW(bad.validate(), ContractViolation);
  bad = PolicyConfig{};
  bad.vl_map = "bogus";
  EXPECT_THROW(bad.validate(), ContractViolation);
  PolicyConfig good;
  good.validate();  // defaults must be registered
}

TEST(PolicyRegistry, SimConfigValidateChecksPolicyNames) {
  SimConfig cfg;
  cfg.policy.forwarding = "no-such-policy";
  EXPECT_THROW(cfg.validate(), ContractViolation);
}

// ---- forwarding-policy selection rules ------------------------------------

UpPortCandidate cand(PortId port, std::int32_t free_slots, std::int32_t credits,
                     std::uint32_t fecn = 0) {
  return UpPortCandidate{port, free_slots, credits, fecn};
}

TEST(AdaptivePolicy, DeterministicPolicyAlwaysReturnsTheLftAnswer) {
  const auto det = make_forwarding_policy("deterministic");
  EXPECT_TRUE(det->deterministic());
  const std::vector<UpPortCandidate> up = {cand(5, 0, 0), cand(6, 9, 9),
                                           cand(7, 9, 9)};
  EXPECT_EQ(det->select_uplink(up, 5), 5);
  EXPECT_EQ(det->select_uplink(up, 7), 7);
}

TEST(AdaptivePolicy, PicksTheLargestHeadroom) {
  // headroom = free output slots + downstream credits.
  const auto adaptive = make_forwarding_policy("adaptive");
  EXPECT_FALSE(adaptive->deterministic());
  const std::vector<UpPortCandidate> up = {cand(5, 1, 0), cand(6, 1, 2),
                                           cand(7, 0, 1)};
  EXPECT_EQ(adaptive->select_uplink(up, 5), 6);
}

TEST(AdaptivePolicy, FecnMarksBreakHeadroomTies) {
  // Equal headroom: the port that has stamped fewer FECN marks (not a
  // congestion root) wins.
  const auto adaptive = make_forwarding_policy("adaptive");
  const std::vector<UpPortCandidate> up = {cand(5, 1, 1, /*fecn=*/8),
                                           cand(6, 1, 1, /*fecn=*/2),
                                           cand(7, 0, 1, /*fecn=*/0)};
  EXPECT_EQ(adaptive->select_uplink(up, 5), 6);
}

TEST(AdaptivePolicy, DeterministicPortWinsFullTies) {
  // All signals equal: the LFT's answer wins, so an uncontended adaptive
  // run follows the deterministic paths exactly.
  const auto adaptive = make_forwarding_policy("adaptive");
  const std::vector<UpPortCandidate> up = {cand(5, 1, 1), cand(6, 1, 1),
                                           cand(7, 1, 1)};
  EXPECT_EQ(adaptive->select_uplink(up, 6), 6);
  EXPECT_EQ(adaptive->select_uplink(up, 7), 7);
}

TEST(AdaptivePolicy, SelectionIsAlwaysACandidate) {
  const auto adaptive = make_forwarding_policy("adaptive");
  const std::vector<UpPortCandidate> up = {cand(5, -3, 0), cand(6, -1, -2)};
  const PortId pick = adaptive->select_uplink(up, 5);
  EXPECT_TRUE(pick == 5 || pick == 6);
}

// ---- VL-map rules ---------------------------------------------------------

TEST(VlMap, KeyedMapsFollowTheirKey) {
  Xoshiro256 rng(1);
  const auto src = make_vl_map_policy("src-mod");
  const auto dest = make_vl_map_policy("dest-mod");
  for (NodeId id = 0; id < 64; ++id) {
    EXPECT_EQ(src->assign({id, 0, 4}, rng), static_cast<VlId>(id % 4));
    EXPECT_EQ(dest->assign({0, id, 4}, rng), static_cast<VlId>(id % 4));
  }

  const auto flow = make_vl_map_policy("flow-hash");
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId d = 0; d < 8; ++d) {
      const VlId vl = flow->assign({s, d, 4}, rng);
      EXPECT_LT(int{vl}, 4);
      // Flow-keyed: stable per (src, dst) pair.
      EXPECT_EQ(flow->assign({s, d, 4}, rng), vl);
    }
  }

  const auto tenant = make_vl_map_policy("tenant");
  EXPECT_TRUE(tenant->needs_tenants());
  EXPECT_FALSE(src->needs_tenants());
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(tenant->assign({0, 0, 4, t}, rng), static_cast<VlId>(t % 4));
  }
  // None of the keyed maps touched the stream.
  Xoshiro256 fresh(1);
  EXPECT_EQ(rng(), fresh());
}

TEST(VlMap, RandomDrawsOneLanePerPacketFromTheStream) {
  const auto random = make_vl_map_policy("random");
  EXPECT_FALSE(random->needs_tenants());
  Xoshiro256 rng(5);
  Xoshiro256 expected(5);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(random->assign({1, 2, 4}, rng),
              static_cast<VlId>(expected.below(4)));
  }
}

TEST(VlMap, TenantMapNeedsTenants) {
  SimConfig cfg;
  cfg.num_vls = 4;
  cfg.policy.vl_map = "tenant";
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.tenants.count = 4;
  EXPECT_NO_THROW(cfg.validate());
}

// ---- engine-level determinism and invariants ------------------------------

SimConfig adaptive_cfg() {
  SimConfig cfg;
  cfg.warmup_ns = 5'000;
  cfg.measure_ns = 20'000;
  cfg.seed = 17;
  cfg.policy.forwarding = "adaptive";
  return cfg;
}

/// Asserts a run serializes identically for every shards x threads
/// combination ({1, 1} is the reference).
void expect_identity_across_shards(const Subnet& subnet, const SimConfig& cfg,
                                   const TrafficConfig& traffic,
                                   double load) {
  const auto run = [&](ShardOptions par) {
    return ShardedSimulation::open_loop(subnet, cfg, traffic, load, par).run();
  };
  const SimResult reference = run({1, 1});
  EXPECT_GT(reference.packets_delivered, 0u);
  const std::string want = to_json(reference);
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      EXPECT_EQ(want, to_json(run({shards, threads})))
          << "shards " << shards << " threads " << threads;
    }
  }
}

TEST(PolicyParity, AdaptiveShardedRunsMatchOneShard) {
  // The occupancy/credit signals a policy reads are the owning shard's own
  // arrays (device state never splits across shards), so the adaptive
  // policy must hold the same shard-parity contract as the deterministic
  // engine.
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kCentric, 0.2, 0, 23};
  expect_identity_across_shards(subnet, adaptive_cfg(), traffic, 0.7);
}

TEST(PolicyParity, VlMapShardedRunsMatchOneShard) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.0, 0, 29};
  SimConfig cfg = adaptive_cfg();
  cfg.num_vls = 4;
  cfg.policy.vl_map = "flow-hash";
  expect_identity_across_shards(subnet, cfg, traffic, 0.6);
}

TEST(PolicyParity, TenantVlMapShardedRunsMatchOneShard) {
  // Every shard derives a packet's tenant from its own copy of the config,
  // so the tenant map picks the same lane on any partition.
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  TrafficConfig traffic{TrafficKind::kUniform, 0.0, 0, 43};
  traffic.tenants = 4;
  SimConfig cfg = adaptive_cfg();
  cfg.num_vls = 4;
  cfg.tenants.count = 4;
  cfg.policy.vl_map = "tenant";
  expect_identity_across_shards(subnet, cfg, traffic, 0.6);
}

TEST(PolicyParity, TelemetryDoesNotChangeAdaptiveResults) {
  // The adaptive FECN-mark signal is its own counter, not the telemetry
  // one: turning observability off must not move a single packet.
  const FatTreeFabric fabric{FatTreeParams(8, 2)};
  const Subnet subnet(fabric, "SLID");
  const TrafficConfig traffic{TrafficKind::kCentric, 0.2, 0, 31};
  SimConfig on = adaptive_cfg();
  on.cc.enabled = true;
  SimConfig off = on;
  off.telemetry = false;
  const SimResult with =
      Simulation::open_loop(subnet, on, traffic, 0.9).run();
  const SimResult without =
      Simulation::open_loop(subnet, off, traffic, 0.9).run();
  EXPECT_EQ(with.packets_delivered, without.packets_delivered);
  EXPECT_EQ(with.packets_dropped, without.packets_dropped);
  EXPECT_DOUBLE_EQ(with.avg_latency_ns, without.avg_latency_ns);
}

TEST(PolicyInvariants, AdaptivePathsStayMinimal) {
  // Only up-phase ports are ever overridden, so every packet still crosses
  // at most 2n hops of wire (up to a root, down to the leaf): no loops, no
  // detours.  avg_hops counts link traversals including the two endnode
  // links.
  for (const auto& [m, n] : {std::pair{4, 3}, std::pair{8, 2}}) {
    const FatTreeFabric fabric{FatTreeParams(m, n)};
    const Subnet subnet(fabric, "SLID");
    SimConfig cfg = adaptive_cfg();
    const TrafficConfig traffic{TrafficKind::kCentric, 0.2, 0, 37};
    const SimResult r = Simulation::open_loop(subnet, cfg, traffic, 0.9).run();
    EXPECT_GT(r.packets_delivered, 0u);
    EXPECT_EQ(r.packets_dropped, 0u);
    EXPECT_LE(r.avg_hops, 2.0 * n) << "m=" << m << " n=" << n;
  }
}

TEST(PolicyInvariants, VlMapDeliveriesLandOnTheMappedLanes) {
  // dest-mod at 4 VLs: every delivered packet rides VL (dst % 4), so all
  // four lanes carry traffic and per-VL delivery is deterministic.
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  SimConfig cfg = adaptive_cfg();
  cfg.policy.forwarding = "deterministic";
  cfg.num_vls = 4;
  cfg.policy.vl_map = "dest-mod";
  const TrafficConfig traffic{TrafficKind::kUniform, 0.0, 0, 41};
  const SimResult a = Simulation::open_loop(subnet, cfg, traffic, 0.5).run();
  const SimResult b = Simulation::open_loop(subnet, cfg, traffic, 0.5).run();
  ASSERT_EQ(a.delivered_per_vl.size(), 4u);
  std::uint64_t total = 0;
  for (int vl = 0; vl < 4; ++vl) {
    EXPECT_GT(a.delivered_per_vl[vl], 0u) << "vl " << vl;
    EXPECT_EQ(a.delivered_per_vl[vl], b.delivered_per_vl[vl]);
    total += a.delivered_per_vl[vl];
  }
  // delivered_per_vl counts the measurement window only.
  EXPECT_EQ(total, a.packets_measured);
}

}  // namespace
}  // namespace mlid
