#include "routing/adaptive.hpp"

#include "common/rng.hpp"

namespace mlid {
namespace {

/// Pure LFT lookup -- what real InfiniBand switches do.  The engine
/// short-circuits on deterministic() and never calls select_uplink; the
/// implementation exists so the policy behaves sensibly if driven directly.
class DeterministicPolicy final : public ForwardingPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "deterministic";
  }
  [[nodiscard]] bool deterministic() const noexcept override { return true; }
  [[nodiscard]] PortId select_uplink(std::span<const UpPortCandidate> /*up*/,
                                     PortId deterministic) const override {
    return deterministic;
  }
};

/// Credit/occupancy-keyed adaptive up-port choice: take the candidate with
/// the most headroom (free output slots + downstream credits); break ties
/// toward the port with fewer FECN marks (with congestion control on, a
/// marking output is a discriminated congestion root -- steer around it),
/// then toward the LFT's deterministic choice, then by port number.  Not
/// IBA-conformant; this is the what-if that bounds the gap MLID's static
/// rank-spreading leaves on the table.  Only sound on *pristine* fabrics:
/// on a degraded fabric an arbitrary parent may be a dead end.
class AdaptiveUplinkPolicy final : public ForwardingPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "adaptive";
  }
  [[nodiscard]] PortId select_uplink(std::span<const UpPortCandidate> up,
                                     PortId deterministic) const override {
    MLID_ASSERT(!up.empty(), "no candidate up ports");
    PortId best = deterministic;
    std::int32_t best_headroom = -1;
    std::uint32_t best_fecn = 0;
    for (const UpPortCandidate& c : up) {
      const std::int32_t headroom = c.free_slots + c.credits;
      const bool better =
          headroom > best_headroom ||
          (headroom == best_headroom &&
           (c.fecn_marks < best_fecn ||
            (c.fecn_marks == best_fecn && c.port == deterministic)));
      if (better) {
        best = c.port;
        best_headroom = headroom;
        best_fecn = c.fecn_marks;
      }
    }
    return best;
  }
};

/// A uniform random lane per packet, drawn from the source's stream: the
/// paper's setting, spreading every flow over all lanes.
class RandomVlMap final : public VlMapPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "random";
  }
  [[nodiscard]] VlId assign(const VlRequest& req,
                            Xoshiro256& rng) const override {
    return static_cast<VlId>(
        rng.below(static_cast<std::uint64_t>(req.num_vls)));
  }
};

/// Per-source affinity: all of a source's traffic shares one lane.
class SrcModVlMap final : public VlMapPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "src-mod";
  }
  [[nodiscard]] VlId assign(const VlRequest& req,
                            Xoshiro256& /*rng*/) const override {
    return static_cast<VlId>(req.src % static_cast<NodeId>(req.num_vls));
  }
};

/// vFtree-style destination binding: all traffic to one destination shares
/// a lane, separating hot-spot flows from the lanes victims ride on.
class DestModVlMap final : public VlMapPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "dest-mod";
  }
  [[nodiscard]] VlId assign(const VlRequest& req,
                            Xoshiro256& /*rng*/) const override {
    return static_cast<VlId>(req.dst % static_cast<NodeId>(req.num_vls));
  }
};

/// Flow2SL-style flow hashing: each (src, dst) flow is pinned to a lane by
/// a SplitMix64 finalization, decorrelating neighbouring node ids.
class FlowHashVlMap final : public VlMapPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "flow-hash";
  }
  [[nodiscard]] VlId assign(const VlRequest& req,
                            Xoshiro256& /*rng*/) const override {
    const std::uint64_t flow = (static_cast<std::uint64_t>(req.src) << 32) |
                               static_cast<std::uint64_t>(req.dst);
    return static_cast<VlId>(SplitMix64(flow).next() %
                             static_cast<std::uint64_t>(req.num_vls));
  }
};

/// Tenant isolation: tenant t's packets all ride VL t % num_vls, so with
/// enough lanes no two tenants share a buffer.
class TenantVlMap final : public VlMapPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "tenant";
  }
  [[nodiscard]] bool needs_tenants() const noexcept override { return true; }
  [[nodiscard]] VlId assign(const VlRequest& req,
                            Xoshiro256& /*rng*/) const override {
    MLID_ASSERT(req.tenant >= 0, "the tenant VL map needs tenants");
    return static_cast<VlId>(req.tenant % req.num_vls);
  }
};

}  // namespace

ForwardingPolicyRegistry& ForwardingPolicyRegistry::instance() {
  static ForwardingPolicyRegistry reg = [] {
    ForwardingPolicyRegistry r;
    r.add("deterministic", [] {
      return std::unique_ptr<ForwardingPolicy>(
          std::make_unique<DeterministicPolicy>());
    });
    r.add("adaptive", [] {
      return std::unique_ptr<ForwardingPolicy>(
          std::make_unique<AdaptiveUplinkPolicy>());
    });
    return r;
  }();
  return reg;
}

VlMapRegistry& VlMapRegistry::instance() {
  static VlMapRegistry reg = [] {
    VlMapRegistry r;
    r.add("random", [] {
      return std::unique_ptr<VlMapPolicy>(std::make_unique<RandomVlMap>());
    });
    r.add("src-mod", [] {
      return std::unique_ptr<VlMapPolicy>(std::make_unique<SrcModVlMap>());
    });
    r.add("dest-mod", [] {
      return std::unique_ptr<VlMapPolicy>(std::make_unique<DestModVlMap>());
    });
    r.add("flow-hash", [] {
      return std::unique_ptr<VlMapPolicy>(std::make_unique<FlowHashVlMap>());
    });
    r.add("tenant", [] {
      return std::unique_ptr<VlMapPolicy>(std::make_unique<TenantVlMap>());
    });
    return r;
  }();
  return reg;
}

std::unique_ptr<ForwardingPolicy> make_forwarding_policy(
    std::string_view name) {
  return ForwardingPolicyRegistry::instance().make(name);
}

std::unique_ptr<VlMapPolicy> make_vl_map_policy(std::string_view name) {
  return VlMapRegistry::instance().make(name);
}

std::string forwarding_policy_listing() {
  return ForwardingPolicyRegistry::instance().listing();
}

std::string vl_map_listing() {
  return VlMapRegistry::instance().listing();
}

void PolicyConfig::validate() const {
  if (!ForwardingPolicyRegistry::instance().contains(forwarding)) {
    const std::string msg =
        "unknown forwarding policy '" + forwarding +
        "' (registered: " + forwarding_policy_listing() + ")";
    MLID_EXPECT(false, msg.c_str());
  }
  if (!VlMapRegistry::instance().contains(vl_map)) {
    const std::string msg = "unknown VL map '" + vl_map +
                            "' (registered: " + vl_map_listing() + ")";
    MLID_EXPECT(false, msg.c_str());
  }
}

}  // namespace mlid
