// Scenario-subsystem parity pins: runs that do not opt into the tenant /
// scenario machinery must stay byte-identical to the pre-scenario engine,
// and accounting-only tenancy must observe the simulation without
// perturbing it.  These are the "scenario=none paths unchanged" guarantees
// the subsystem was built under.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "harness/report.hpp"
#include "parallel/sharded.hpp"
#include "sim/engine.hpp"

namespace mlid {
namespace {

SimConfig small_cfg() {
  SimConfig cfg;
  cfg.seed = 17;
  cfg.num_vls = 4;
  cfg.warmup_ns = 5'000;
  cfg.measure_ns = 20'000;
  return cfg;
}

SimResult run_once(const Subnet& subnet, const SimConfig& cfg,
                   const TrafficConfig& traffic) {
  return Simulation::open_loop(subnet, cfg, traffic, /*offered_load=*/0.5)
      .run();
}

TEST(ScenarioParity, AccountingOnlyTenancyDoesNotPerturbTheRun) {
  // Same fabric, same traffic partition; the only delta is whether the
  // engine keeps per-tenant books.  Every non-tenant observable must be
  // byte-identical: accounting is a read-only tap on on_deliver.
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 99};
  traffic.tenants = 4;

  const SimConfig off = small_cfg();  // tenants.count = 0: subsystem off
  SimConfig on = small_cfg();
  on.tenants.count = 4;  // accounting on, default VL map

  const SimResult r_off = run_once(subnet, off, traffic);
  SimResult r_on = run_once(subnet, on, traffic);
  ASSERT_EQ(r_on.tenants.size(), 4u);
  EXPECT_TRUE(r_off.tenants.empty());

  // Strip the tenant block and the JSON blobs must match byte for byte.
  r_on.tenants.clear();
  r_on.tenant_jain_fairness_index = 0.0;
  EXPECT_EQ(to_json(r_on), to_json(r_off));
}

TEST(ScenarioParity, TenantBooksSumToTheWindowTotals) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 23};
  traffic.tenants = 4;
  SimConfig cfg = small_cfg();
  cfg.tenants.count = 4;

  const SimResult r = run_once(subnet, cfg, traffic);
  std::uint64_t delivered = 0;
  for (const TenantStats& t : r.tenants) {
    delivered += t.delivered_pkts;
    EXPECT_GT(t.delivered_pkts, 0u);
    EXPECT_GT(t.accepted_bytes_per_ns, 0.0);
    EXPECT_GT(t.avg_latency_ns, 0.0);
  }
  EXPECT_EQ(delivered, r.packets_measured);
  EXPECT_GT(r.tenant_jain_fairness_index, 0.0);
  EXPECT_LE(r.tenant_jain_fairness_index, 1.0 + 1e-12);
}

TEST(ScenarioParity, VlBindingPinsEachTenantToItsLane) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 31};
  traffic.tenants = 4;
  SimConfig cfg = small_cfg();
  cfg.tenants.count = 4;
  cfg.policy.vl_map = "tenant";

  const SimResult r = run_once(subnet, cfg, traffic);
  ASSERT_EQ(r.delivered_per_vl.size(), 4u);
  // With 4 tenants on 4 VLs every lane carries exactly one tenant's
  // packets, so all four lanes are active.
  for (const std::uint64_t n : r.delivered_per_vl) EXPECT_GT(n, 0u);
  // Traffic stays inside a tenant, so lane t carries exactly the packets
  // tenant t's books count.
  ASSERT_EQ(r.tenants.size(), 4u);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(r.delivered_per_vl[t], r.tenants[t].delivered_pkts)
        << "tenant " << t;
  }
  const std::uint64_t on_vls = std::accumulate(
      r.delivered_per_vl.begin(), r.delivered_per_vl.end(), std::uint64_t{0});
  EXPECT_EQ(on_vls, r.packets_measured);
}

TEST(ScenarioParity, ShardedTenantAccountingMatchesOneShard) {
  // Each shard keeps tenant books for its own deliveries and the merge
  // adds them up, so every partition and thread count must reproduce the
  // one-shard books exactly.
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 47};
  traffic.tenants = 4;
  SimConfig cfg = small_cfg();
  cfg.tenants.count = 4;

  const std::string reference = to_json(run_once(subnet, cfg, traffic));
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      const SimResult sharded = ShardedSimulation::open_loop(
                                    subnet, cfg, traffic, 0.5,
                                    {shards, threads})
                                    .run();
      EXPECT_EQ(reference, to_json(sharded))
          << "shards " << shards << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace mlid
