// Simulation configuration: timing constants, buffering, virtual lanes and
// measurement windows.
//
// The paper's absolute numbers were lost to OCR; the defaults below follow
// the IBA spec and contemporaneous studies (see DESIGN.md "Substitutions"):
// 100 ns routing/arbitration per switch, 20 ns wire flying time, 1 ns per
// byte (4X link), 256-byte packets, one-packet-deep per-VL buffers.
#pragma once

#include <cstdint>
#include <vector>

#include "cc/config.hpp"
#include "common/expect.hpp"
#include "common/types.hpp"
#include "routing/adaptive.hpp"

namespace mlid {

/// Multi-tenant partitioning: carves the endnode space into `count`
/// contiguous, equal-sized blocks for per-tenant accounting; the "tenant"
/// VL map pins each tenant's traffic to its own virtual lane.  `count == 0`
/// disables the subsystem entirely, and every run is byte-identical to the
/// pre-tenant engine (asserted by sim/scenario_parity_test.cpp).  Tenant of
/// node i is `i * count / N`.
struct TenantConfig {
  int count = 0;          ///< number of tenants; 0 = subsystem off

  void validate(int num_nodes) const {
    MLID_EXPECT(count >= 0, "tenant count cannot be negative");
    if (count > 0 && num_nodes > 0) {
      MLID_EXPECT(count <= num_nodes, "more tenants than endnodes");
    }
  }
};

struct SimConfig {
  // --- timing (nanoseconds) -------------------------------------------------
  SimTime routing_delay_ns = 100;  ///< LFT lookup + arbitration + startup
  SimTime flying_time_ns = 20;     ///< head propagation per hop (wire)
  SimTime byte_time_ns = 1;        ///< serialization time per byte

  // --- packets and buffers --------------------------------------------------
  std::uint32_t packet_bytes = 256;
  int num_vls = 1;            ///< data virtual lanes (1, 2 or 4 in the paper)
  int in_buf_pkts = 1;        ///< input buffer depth per (port, VL)
  int out_buf_pkts = 1;       ///< output buffer depth per (port, VL)

  /// Forwarding / VL-map policy pair, by registry name (see
  /// routing/adaptive.hpp).  The defaults ("deterministic", "random") are
  /// the paper's setting; "adaptive" switches the up-phase to
  /// credit/occupancy-keyed port selection, and the keyed VL maps put
  /// packets on source-, destination-, flow- or tenant-keyed lanes.
  PolicyConfig policy;

  /// IBA VL-arbitration weights (packets served per round before yielding).
  /// Empty = equal-weight round-robin.  When set, must have one positive
  /// entry per VL.
  std::vector<int> vl_weights;

  // --- measurement ----------------------------------------------------------
  SimTime warmup_ns = 20'000;
  SimTime measure_ns = 80'000;
  std::uint64_t seed = 1;

  /// Collect the extended telemetry (log2 latency histograms, per-link and
  /// per-VL counters, LinkSummary).  Pure observability: it adds counter
  /// increments to the hot path but never schedules events or draws random
  /// numbers, so turning it off changes nothing except leaving SimResult's
  /// telemetry block empty (asserted by sim/telemetry_test.cpp).
  bool telemetry = true;

  /// Record full event timelines for up to N generated packets
  /// (0 = tracing off; see Simulation::traces()).
  std::uint32_t trace_packets = 0;

  /// Trace every k-th generated packet until trace_packets records exist.
  /// Stride 1 keeps the historical first-N behaviour; a larger stride
  /// spreads the records across the run so traces cover steady state
  /// instead of only the cold-start transient.
  std::uint32_t trace_stride = 1;

  /// Interval sampler cadence (0 = off; open-loop mode only).  Every
  /// sample_interval_ns of simulated time the engine snapshots delivery /
  /// generation / drop deltas, in-flight and queued packet counts,
  /// credit-stall and CCT gauges into SimResult::timeline.  Sampling is
  /// pure observation -- no events, no RNG draws -- so results stay
  /// bit-identical with the sampler on or off (sim/timeline_test.cpp).
  SimTime sample_interval_ns = 0;

  /// Timeline length bound: reaching it merges adjacent sample pairs and
  /// doubles the effective interval (see Timeline::append), keeping
  /// BENCH_*.json bounded on arbitrarily long runs.
  std::uint32_t timeline_max_samples = 512;

  /// Per-device flight recorder: keep the last K dispatched engine events
  /// per device (0 = off) and freeze the dropping device's ring on the
  /// first drop, making the drop-reason taxonomy debuggable.  Passive like
  /// the sampler.
  std::uint32_t flight_recorder_depth = 0;

  /// Record control-plane events (faults, SM traps/sweeps/programs, BECN /
  /// CCT activity) into Simulation::control_trace() for the chrome-trace
  /// exporter.  Passive like the sampler.
  bool trace_control = false;

  /// Engine self-profiling (obs/profile.hpp): wall-time phase breakdown of
  /// the *simulator* -- event processing vs barrier wait vs mailbox drain
  /// vs control steps, window/imbalance/queue-op statistics -- into
  /// SimResult::profile.  Reads host clocks and existing counters only;
  /// never schedules events or draws random numbers, so results stay
  /// byte-identical with profiling on or off for any shard/thread count
  /// (tests/obs/profile_parity_test.cpp).
  bool profile = false;

  /// Congestion control (IBA CCA): FECN marking at switches, BECN echo from
  /// destinations, CCT-indexed injection throttling at sources.  Off by
  /// default; with cc.enabled == false every run is bit-identical to the
  /// pre-CC engine (asserted by sim/cc_parity_test.cpp).
  CcConfig cc;

  /// Multi-tenant partitioning (off by default; see TenantConfig).  The
  /// scenario subsystem's `multi-tenant` scenario turns this on together
  /// with TrafficConfig::tenants so traffic, the "tenant" VL map and the
  /// per-tenant SimResult block all agree on the same node blocks.
  TenantConfig tenants;

  [[nodiscard]] SimTime end_time() const noexcept {
    return warmup_ns + measure_ns;
  }

  /// Serialization time of one full packet.
  [[nodiscard]] SimTime packet_wire_ns() const noexcept {
    return static_cast<SimTime>(packet_bytes) * byte_time_ns;
  }

  void validate() const {
    MLID_EXPECT(routing_delay_ns >= 0 && flying_time_ns >= 0 &&
                    byte_time_ns >= 1,
                "timing constants out of range");
    MLID_EXPECT(packet_bytes >= 1, "empty packets are not modelled");
    MLID_EXPECT(num_vls >= 1 && num_vls <= 15,
                "IBA supports at most 15 data VLs");
    if (!vl_weights.empty()) {
      MLID_EXPECT(static_cast<int>(vl_weights.size()) == num_vls,
                  "need one VL-arbitration weight per VL");
      for (int w : vl_weights) {
        MLID_EXPECT(w >= 1, "VL-arbitration weights must be positive");
      }
    }
    MLID_EXPECT(in_buf_pkts >= 1 && out_buf_pkts >= 1,
                "buffers must hold at least one packet");
    policy.validate();
    MLID_EXPECT(tenants.count > 0 ||
                    !make_vl_map_policy(policy.vl_map)->needs_tenants(),
                "the tenant VL map needs tenants (tenants.count > 0)");
    MLID_EXPECT(warmup_ns >= 0 && measure_ns > 0,
                "measurement window must be non-empty");
    MLID_EXPECT(trace_stride >= 1, "trace stride must be at least 1");
    MLID_EXPECT(sample_interval_ns >= 0, "sampler interval cannot be negative");
    if (sample_interval_ns > 0) {
      MLID_EXPECT(timeline_max_samples >= 2,
                  "timeline cap must hold at least two samples");
    }
    cc.validate();
    tenants.validate(/*num_nodes=*/0);  // count bound re-checked per fabric
  }
};

}  // namespace mlid
