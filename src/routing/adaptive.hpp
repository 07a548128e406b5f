// Forwarding-policy and VL-assignment-policy axes: the per-hop adaptive
// routing / dynamic queuing subsystem (ROADMAP item 3, after
// Rocher-Gonzalez et al.'s adaptive-routing + queuing-scheme study).
//
// Two orthogonal, string-keyed policy axes compose with any routing scheme:
//
//  * ForwardingPolicy -- consulted by the engine at each switch
//    output-selection point.  The LFT's deterministic answer is always
//    computed first; when it points upward (any connected up port of a
//    fat-tree switch is a minimal next hop), a non-deterministic policy may
//    pick a different up port using the shard-local occupancy signals the
//    engine exposes (free output slots, link credits, FECN marks stamped at
//    that output).  Down entries are never overridden: the destination sits
//    in exactly one subtree, so only the up-phase has freedom to exploit.
//
//  * VlMapPolicy -- the one VL-selection axis: which data VL an HCA puts a
//    packet on, composing with the weighted VL arbitration.  "random" (the
//    default, and the paper's setting) draws a lane per packet from the
//    source's own stream; "src-mod", "dest-mod" (vFtree style),
//    "flow-hash" (Flow2SL style) and "tenant" key the lane on the packet.
//
// Determinism contract: policies are stateless and read only the signals
// passed in (a VL map's only randomness is the per-source stream the engine
// hands it), so a run is bit-reproducible for a given (config, traffic)
// seed pair under any policy.  In sharded runs each shard constructs its
// own policy objects and the candidate signals are the owning shard's
// local arrays, so shard parity holds.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace mlid {

/// One candidate up port at a switch output-selection point, with the
/// shard-local occupancy signals the engine exposes to policies.
struct UpPortCandidate {
  PortId port = 0;
  std::int32_t free_slots = 0;   ///< free output-buffer slots on this VL
  std::int32_t credits = 0;      ///< downstream input slots (link credits)
  /// FECN marks stamped at this output so far (0 unless congestion control
  /// is enabled): the CC subsystem's congestion-root discrimination as a
  /// selection input -- ports that have marked are roots worth avoiding.
  std::uint32_t fecn_marks = 0;
};

/// How switches pick among the equivalent up ports of the up-phase.
class ForwardingPolicy {
 public:
  virtual ~ForwardingPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True for the pure-LFT policy: the engine then skips candidate
  /// enumeration entirely, keeping the hot path byte-identical to the
  /// pre-policy engine.
  [[nodiscard]] virtual bool deterministic() const noexcept { return false; }

  /// Chooses one of `up` (never empty; all entries are connected up ports
  /// of the current switch).  `deterministic` is the LFT's Equation-2
  /// answer and is always among the candidates.  Must return a candidate
  /// port -- the engine asserts the choice is an eligible up port.
  [[nodiscard]] virtual PortId select_uplink(
      std::span<const UpPortCandidate> up, PortId deterministic) const = 0;
};

/// One packet's lane request: everything a VL map may key on.
struct VlRequest {
  NodeId src = 0;
  NodeId dst = 0;
  int num_vls = 1;
  int tenant = -1;  ///< the source's tenant; -1 when tenants are off
};

/// HCA-side VL assignment: picks the data VL each packet rides.
class VlMapPolicy {
 public:
  virtual ~VlMapPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True when the map keys on VlRequest::tenant; SimConfig::validate then
  /// requires tenants.count > 0.
  [[nodiscard]] virtual bool needs_tenants() const noexcept { return false; }

  /// The packet's data VL; must be < req.num_vls (the engine asserts it).
  /// `rng` is the source node's own VL stream, read by nothing else.
  [[nodiscard]] virtual VlId assign(const VlRequest& req,
                                    Xoshiro256& rng) const = 0;
};

/// Small shared registry shape for the two policy axes: string-keyed,
/// case-insensitive, registration-ordered (like SchemeRegistry, minus the
/// sweep seed keys -- point seeds are deliberately policy-independent so
/// policy arms compare on identical streams).
template <typename Interface>
class PolicyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Interface>()>;

  void add(std::string name, Factory factory) {
    MLID_EXPECT(!name.empty(), "policy name must be non-empty");
    MLID_EXPECT(factory != nullptr, "policy factory must be callable");
    if (find(name) != nullptr) {
      const std::string msg = "policy '" + name + "' is already registered";
      MLID_EXPECT(false, msg.c_str());
    }
    entries_.push_back(Entry{std::move(name), std::move(factory)});
  }

  [[nodiscard]] bool contains(std::string_view name) const noexcept {
    return find(name) != nullptr;
  }

  [[nodiscard]] std::unique_ptr<Interface> make(std::string_view name) const {
    const Entry* e = find(name);
    if (e == nullptr) {
      const std::string msg = "unknown policy '" + std::string(name) +
                              "' (registered: " + listing() + ")";
      MLID_EXPECT(false, msg.c_str());
    }
    std::unique_ptr<Interface> policy = e->factory();
    MLID_EXPECT(policy != nullptr, "policy factory returned nullptr");
    return policy;
  }

  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.name);
    return out;
  }

  [[nodiscard]] std::string listing() const {
    std::string out;
    for (const Entry& e : entries_) {
      if (!out.empty()) out += ", ";
      out += e.name;
    }
    return out;
  }

 private:
  struct Entry {
    std::string name;
    Factory factory;
  };

  [[nodiscard]] const Entry* find(std::string_view name) const noexcept {
    for (const Entry& e : entries_) {
      if (e.name.size() != name.size()) continue;
      bool eq = true;
      for (std::size_t i = 0; i < name.size(); ++i) {
        const auto lo = [](char c) {
          return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
        };
        if (lo(e.name[i]) != lo(name[i])) {
          eq = false;
          break;
        }
      }
      if (eq) return &e;
    }
    return nullptr;
  }

  std::vector<Entry> entries_;
};

/// Process-wide forwarding-policy registry; "deterministic" (default) and
/// "adaptive" are registered on first use.
class ForwardingPolicyRegistry : public PolicyRegistry<ForwardingPolicy> {
 public:
  static ForwardingPolicyRegistry& instance();
};

/// Process-wide VL-map registry; "random" (default), "src-mod", "dest-mod"
/// (vFtree-style destination binding), "flow-hash" (Flow2SL-style flow
/// hashing) and "tenant" are registered on first use.
class VlMapRegistry : public PolicyRegistry<VlMapPolicy> {
 public:
  static VlMapRegistry& instance();
};

/// Convenience wrappers over the singleton registries.
[[nodiscard]] std::unique_ptr<ForwardingPolicy> make_forwarding_policy(
    std::string_view name);
[[nodiscard]] std::unique_ptr<VlMapPolicy> make_vl_map_policy(
    std::string_view name);
[[nodiscard]] std::string forwarding_policy_listing();
[[nodiscard]] std::string vl_map_listing();

/// The policy pair a simulation runs under, by registry name.  Part of
/// SimConfig; the defaults are the paper's setting (LFT forwarding, a
/// random lane per packet).
struct PolicyConfig {
  std::string forwarding = "deterministic";
  std::string vl_map = "random";

  void validate() const;  ///< names must be registered

  [[nodiscard]] bool operator==(const PolicyConfig&) const = default;
};

}  // namespace mlid
