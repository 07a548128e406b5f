// Shared machinery for destination-based routing on IBFT(m, n).
//
// Both SLID and MLID build their LFTs from the same two closed forms
// (paper Section 4.3):
//   Case 1 (destination below this switch):      k = p_l + 1
//   Case 2 (forward upward): k = floor((lid-1) / (m/2)^(n-1-l)) mod (m/2)
//                                + m/2 + 1
// They differ only in the LMC (how many low bits of lid-1 encode a path
// offset) and in the path-selection rule.
#pragma once

#include "routing/scheme.hpp"
#include "topology/properties.hpp"

namespace mlid {

class FatTreeRouting : public RoutingScheme, public LftFormula {
 public:
  FatTreeRouting(const FatTreeParams& params, Lmc lmc);

  [[nodiscard]] Lmc lmc() const noexcept final { return lmc_; }

  [[nodiscard]] LidRange lids_of(NodeId node) const final;
  [[nodiscard]] NodeId node_of_lid(Lid lid) const final;
  [[nodiscard]] Lft build_lft(SwitchId sw) const final;
  [[nodiscard]] Lid max_lid() const final;

  /// Both closed forms are total over the assigned LID range, so the
  /// forwarding tables need no dense materialization (CompactLft).
  [[nodiscard]] const LftFormula* lft_formula() const noexcept final {
    return this;
  }
  [[nodiscard]] PortId formula_port(SwitchId sw, Lid lid) const final;

  [[nodiscard]] const FatTreeParams& params() const noexcept {
    return params_;
  }

  /// The up/down decision for one (switch, DLID) pair; exposed so tests can
  /// probe Equations (1) and (2) directly.  Same code as formula_port.
  [[nodiscard]] PortId output_port(const SwitchLabel& sw, Lid lid) const;

 protected:
  FatTreeParams params_;
  Lmc lmc_;

 private:
  /// What a lookup needs of one switch at level l.  The nodes below it are
  /// the PIDs [first_pid, first_pid + span): PIDs enumerate node labels in
  /// lexicographic order and the switch fixes their first l digits.  Every
  /// digit after the first has radix m/2, a power of two, so `shift` =
  /// log2((m/2)^(n-1-l)) extracts digit l of a PID (Equation (1)) or of
  /// lid - 1 (Equation (2)).
  struct SwitchSpan {
    std::uint32_t first_pid = 0;
    std::uint32_t span = 0;
    int shift = 0;
  };
  std::vector<SwitchSpan> spans_;  ///< by SwitchId
};

/// Single-LID baseline: one LID per node (PID + 1); forwarding tables still
/// stripe *destinations* across the up ports, but every (source, dest) pair
/// shares one path, so concurrent senders to one node converge early.
class SlidRouting final : public FatTreeRouting {
 public:
  explicit SlidRouting(const FatTreeParams& params)
      : FatTreeRouting(params, Lmc{0}) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "SLID";
  }

  /// One LID per node: the DLID is always the node's (base) LID.
  [[nodiscard]] Lid select_dlid(NodeId src, NodeId dst) const override;
};

/// MLID with a reduced LMC ("partial multipathing"): every node owns
/// 2^lmc <= (m/2)^(n-1) LIDs and sources spread over rank mod 2^lmc.
/// lmc = 0 degenerates to SLID and lmc = (n-1) log2(m/2) to full MLID;
/// intermediate values trade LID-space consumption against path diversity
/// (the ablation the paper leaves implicit in its LMC discussion).
class PartialMlidRouting final : public FatTreeRouting {
 public:
  PartialMlidRouting(const FatTreeParams& params, Lmc lmc)
      : FatTreeRouting(params, lmc) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "PartialMLID";
  }

  [[nodiscard]] Lid select_dlid(NodeId src, NodeId dst) const override;
};

/// Multiple-LID scheme (the paper's contribution): every node owns
/// 2^LMC = (m/2)^(n-1) LIDs; a source selects
///   DLID = BaseLID(dst) + rank(gcpg(x . p_alpha, alpha + 1), src)
/// which bijectively spreads the senders of a subgroup over the distinct
/// least common ancestors.
class MlidRouting final : public FatTreeRouting {
 public:
  explicit MlidRouting(const FatTreeParams& params)
      : FatTreeRouting(params, params.mlid_lmc()) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "MLID";
  }

  [[nodiscard]] Lid select_dlid(NodeId src, NodeId dst) const override;
};

}  // namespace mlid
