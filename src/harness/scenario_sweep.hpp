// Scenario sweep orchestrator: runs registered production scenarios
// (scenario/scenario.hpp) through the same machinery as run_sweep --
// point-parallel worker pool, optional sharded engine per point, per-point
// manifests -- and evaluates each scenario's self-check contracts against
// the outcomes.  bench/ablation_scenarios is the CLI front end; its exit
// code is the number of violated contracts.
#pragma once

#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "scenario/scenario.hpp"

namespace mlid {

/// One finished scenario arm: the outcome plus the reproducibility manifest
/// (PointManifest::scenario names the owning scenario, BENCH schema v7).
struct ScenarioPoint {
  std::string scenario;
  std::string arm;
  std::string scheme;
  bool closed_loop = false;
  SimResult sim;      ///< open-loop arms
  BurstResult burst;  ///< closed-loop arms
  PointManifest manifest;
};

/// Everything one scenario produced: the arm points in plan order plus the
/// evaluated contracts.
struct ScenarioReport {
  std::string name;
  std::string description;
  std::vector<ScenarioPoint> points;
  std::vector<ContractCheck> checks;

  /// Violated contracts (the bench's exit-code contribution).
  [[nodiscard]] int violations() const noexcept {
    int n = 0;
    for (const ContractCheck& c : checks) n += c.passed ? 0 : 1;
    return n;
  }
};

/// Execution knobs, mirroring SweepOptions plus the fabric shape (scenarios
/// plan against one fabric; the default is the paper's 4-port 3-tree).
struct ScenarioSweepOptions {
  unsigned threads = 0;  ///< worker threads (0 = hardware concurrency)
  unsigned shards = 1;   ///< engine shards per arm (results never change)
  bool quick = false;    ///< CI-sized windows and workloads
  int m = 4;
  int n = 3;
  std::uint64_t base_seed = 1;
  /// Force SimConfig::profile for every arm (ProfileSummary in each arm's
  /// manifest; passive, results unchanged).
  bool profile = false;
  /// Stderr heartbeat: one "progress:" line per completed arm (arms done /
  /// total, elapsed, ETA).  Never on stdout.
  bool progress = false;
};

/// Per-scenario stream derivation, the scenario-space analogue of
/// sweep_point_seed: a SplitMix64 chain over the base seed and the scenario
/// *name* (stable by construction -- renaming a scenario moves its streams,
/// reordering the registry does not).  Deliberately arm-independent: every
/// arm of one scenario faces identical simulation and traffic streams, so
/// arms compare their configuration deltas and nothing else.
[[nodiscard]] std::uint64_t scenario_seed(std::uint64_t base,
                                          std::string_view scenario);
/// Traffic-stream seed, domain-separated from the simulation streams (same
/// separator discipline as sweep_traffic_seed).
[[nodiscard]] std::uint64_t scenario_traffic_seed(std::uint64_t base,
                                                  std::string_view scenario);

/// Run one scenario: plan its arms, execute them on a worker pool (one
/// sharded engine per arm; arms with a fault schedule get their own live
/// SubnetManager), evaluate the contracts.  Scenario results -- and contract
/// verdicts -- are byte-identical for any --shards value (pinned by
/// tests/scenario/scenario_test.cpp).
ScenarioReport run_scenario(const Scenario& scenario,
                            const ScenarioSweepOptions& options = {});

/// Run several registered scenarios by name (every registered scenario when
/// `names` is empty), in registry order.
std::vector<ScenarioReport> run_scenarios(
    const std::vector<std::string>& names,
    const ScenarioSweepOptions& options = {});

/// Aligned per-arm outcome table for one scenario.
std::string render_scenario_table(const ScenarioReport& report);

/// PASS/FAIL table of the scenario's contracts.
std::string render_contract_table(const ScenarioReport& report);

}  // namespace mlid
