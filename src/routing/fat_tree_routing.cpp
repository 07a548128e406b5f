#include "routing/fat_tree_routing.hpp"

namespace mlid {

FatTreeRouting::FatTreeRouting(const FatTreeParams& params, Lmc lmc)
    : params_(params), lmc_(lmc) {
  MLID_EXPECT(lmc <= params.mlid_lmc(),
              "LMC larger than the tree's path diversity");
  MLID_EXPECT(
      static_cast<std::uint64_t>(params.num_nodes()) * (1u << lmc) <
          kMaxLidSpace,
      "LID space exhausted");
  // Switches are numbered by (level, index in level), and an index is the
  // mixed-radix value of the label's digits, so its top l digits -- the
  // prefix a level-l switch fixes -- are index >> shift.
  const int digit_bits =
      ilog2_exact(static_cast<std::uint64_t>(params_.half()));
  spans_.reserve(params_.num_switches());
  for (int level = 0; level < params_.n(); ++level) {
    const int shift = digit_bits * (params_.n() - 1 - level);
    const std::uint32_t count = params_.switches_at_level(level);
    for (std::uint32_t index = 0; index < count; ++index) {
      if (level == 0) {
        spans_.push_back({0, params_.num_nodes(), shift});
      } else {
        const int span_bits = shift + digit_bits;
        spans_.push_back({(index >> shift) << span_bits,
                          std::uint32_t{1} << span_bits, shift});
      }
    }
  }
}

PortId FatTreeRouting::formula_port(SwitchId sw, Lid lid) const {
  MLID_ASSERT(sw < spans_.size(), "switch id out of range");
  MLID_ASSERT(lid != kInvalidLid && ((lid - 1) >> lmc_) < params_.num_nodes(),
              "LID outside the assigned range");
  const SwitchSpan& s = spans_[sw];
  const Lid offset = lid - 1;
  const std::uint32_t below = (offset >> lmc_) - s.first_pid;
  if (below < s.span) {
    // Case 1: descend towards the destination; at level l the child (or the
    // node itself on a leaf switch) is selected by digit p_l.
    return static_cast<PortId>((below >> s.shift) + kPortShift);
  }
  // Case 2: forward upward.  The up port consumes base-(m/2) digit
  // (n-1-level) of (lid-1); because the path offset occupies the low
  // LMC bits, the offset digits are consumed from the leaf level upwards,
  // making the reached least common ancestor the digit-reversal of the
  // offset -- a bijection that spreads subgroup members over distinct LCAs.
  // Roots reach every node, so only levels >= 1 get here.
  const auto half = static_cast<std::uint32_t>(params_.half());
  return static_cast<PortId>(((offset >> s.shift) & (half - 1)) + half +
                             kPortShift);
}

LidRange FatTreeRouting::lids_of(NodeId node) const {
  MLID_EXPECT(node < params_.num_nodes(), "node id out of range");
  // BaseLID(P(p)) = PID(P(p)) * 2^LMC + 1  (LID 0 is reserved).
  return LidRange(static_cast<Lid>(node) * (Lid{1} << lmc_) + 1, lmc_);
}

NodeId FatTreeRouting::node_of_lid(Lid lid) const {
  MLID_EXPECT(lid != kInvalidLid, "LID 0 is reserved");
  const auto pid = static_cast<NodeId>((lid - 1) >> lmc_);
  MLID_EXPECT(pid < params_.num_nodes(), "LID beyond the assigned space");
  return pid;
}

Lid FatTreeRouting::max_lid() const {
  return lids_of(params_.num_nodes() - 1).last();
}

PortId FatTreeRouting::output_port(const SwitchLabel& sw, Lid lid) const {
  MLID_EXPECT(lid != kInvalidLid && lid <= max_lid(),
              "LID outside the assigned range");
  return formula_port(sw.switch_id(params_), lid);
}

Lft FatTreeRouting::build_lft(SwitchId sw) const {
  MLID_EXPECT(sw < params_.num_switches(), "switch id out of range");
  const Lid last = max_lid();
  Lft lft(last);
  for (Lid lid = 1; lid <= last; ++lid) lft.set(lid, formula_port(sw, lid));
  return lft;
}

Lid SlidRouting::select_dlid(NodeId src, NodeId dst) const {
  MLID_EXPECT(src < params_.num_nodes() && dst < params_.num_nodes(),
              "node id out of range");
  return lids_of(dst).base();
}

Lid PartialMlidRouting::select_dlid(NodeId src, NodeId dst) const {
  MLID_EXPECT(src < params_.num_nodes() && dst < params_.num_nodes(),
              "node id out of range");
  const NodeLabel src_label = NodeLabel::from_pid(params_, src);
  const NodeLabel dst_label = NodeLabel::from_pid(params_, dst);
  const int alpha = gcp_length(params_, src_label, dst_label);
  if (alpha == params_.n()) return lids_of(dst).base();
  const std::uint32_t r = (alpha + 1 < params_.n())
                              ? rank_in_group(params_, src_label, alpha + 1)
                              : 0;
  // Fold the rank into the reduced LID block: neighbours in a subgroup
  // share paths once the block is smaller than the subgroup.
  return lids_of(dst).at(r & (lids_of(dst).count() - 1));
}

Lid MlidRouting::select_dlid(NodeId src, NodeId dst) const {
  MLID_EXPECT(src < params_.num_nodes() && dst < params_.num_nodes(),
              "node id out of range");
  const NodeLabel src_label = NodeLabel::from_pid(params_, src);
  const NodeLabel dst_label = NodeLabel::from_pid(params_, dst);
  const int alpha = gcp_length(params_, src_label, dst_label);
  if (alpha == params_.n()) return lids_of(dst).base();  // self-send
  // The source lives in gcpg(x . p_alpha, alpha + 1); its rank there is
  // taken over digit positions alpha+1 .. n-1 and is < (m/2)^(n-1-alpha),
  // which never exceeds the LID block size 2^LMC = (m/2)^(n-1).
  const std::uint32_t r = (alpha + 1 < params_.n())
                              ? rank_in_group(params_, src_label, alpha + 1)
                              : 0;  // same leaf switch: single minimal path
  return lids_of(dst).at(r);
}

}  // namespace mlid
