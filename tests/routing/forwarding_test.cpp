// Tests for the forwarding table assignment scheme: Equations (1) and (2)
// of paper Section 4.3, including the paper's step-by-step walkthrough.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "routing/fat_tree_routing.hpp"
#include "routing/registry.hpp"

namespace mlid {
namespace {

std::array<int, kMaxTreeHeight> digits(std::initializer_list<int> list) {
  std::array<int, kMaxTreeHeight> d{};
  int i = 0;
  for (int v : list) d[static_cast<std::size_t>(i++)] = v;
  return d;
}

TEST(Forwarding, PaperSection43Walkthrough) {
  // The packet P(000) -> P(100) carries DLID = BaseLID(P(100)) + rank(P(000))
  // = 17 and must traverse SW<00,2>, SW<00,1>, SW<00,0>, SW<10,1>, SW<10,2>
  // (path "Q" through root SW<00,0>).  Physical ports below restore the
  // digits the OCR lost; they follow from Equations (1)/(2) + the +1 shift.
  const FatTreeParams p(4, 3);
  const MlidRouting scheme(p);
  const Lid dlid = 17;

  auto sw = [&](int level, std::initializer_list<int> w) {
    return SwitchLabel::from_digits(p, level, digits(w));
  };
  // Ascent (case 2): both hops pick up-digit 0 -> tree port 2, physical 3.
  EXPECT_EQ(int(scheme.output_port(sw(2, {0, 0}), dlid)), 3);
  EXPECT_EQ(int(scheme.output_port(sw(1, {0, 0}), dlid)), 3);
  // Turnaround at the root (case 1): port p0 + 1 = 2.
  EXPECT_EQ(int(scheme.output_port(sw(0, {0, 0}), dlid)), 2);
  // Descent: p1 + 1 = 1, then the node port p2 + 1 = 1.
  EXPECT_EQ(int(scheme.output_port(sw(1, {1, 0}), dlid)), 1);
  EXPECT_EQ(int(scheme.output_port(sw(2, {1, 0}), dlid)), 1);
}

TEST(Forwarding, OffsetSelectsTheRootBijectively) {
  // DLIDs 17..20 (offsets 0..3) toward P(100) must climb out of the 00
  // subtree toward roots <00>, <01>, <10>, <11> respectively: offset bits
  // are consumed least-significant-first on the way up, so the reached root
  // label reads the offset's binary numeral msb-first -- a bijection.
  const FatTreeParams p(4, 3);
  const MlidRouting scheme(p);
  auto leaf = SwitchLabel::from_digits(p, 2, digits({0, 0}));
  auto mid0 = SwitchLabel::from_digits(p, 1, digits({0, 0}));
  auto mid1 = SwitchLabel::from_digits(p, 1, digits({0, 1}));

  // offset 0 (lid 17): leaf up digit 0 -> SW<00,1>, up digit 0 -> root <00>.
  EXPECT_EQ(int(scheme.output_port(leaf, 17)), 3);
  EXPECT_EQ(int(scheme.output_port(mid0, 17)), 3);
  // offset 1 (lid 18): leaf up digit 1 -> SW<01,1>, up digit 0 -> root <01>.
  EXPECT_EQ(int(scheme.output_port(leaf, 18)), 4);
  EXPECT_EQ(int(scheme.output_port(mid1, 18)), 3);
  // offset 2 (lid 19): leaf up digit 0 -> SW<00,1>, up digit 1 -> root <10>.
  EXPECT_EQ(int(scheme.output_port(leaf, 19)), 3);
  EXPECT_EQ(int(scheme.output_port(mid0, 19)), 4);
  // offset 3 (lid 20): leaf up digit 1 -> SW<01,1>, up digit 1 -> root <11>.
  EXPECT_EQ(int(scheme.output_port(leaf, 20)), 4);
  EXPECT_EQ(int(scheme.output_port(mid1, 20)), 4);
}

TEST(Forwarding, DescentIgnoresTheOffset) {
  // Once the destination is below the switch, every LID of the destination
  // maps to the same (unique) down port.
  const FatTreeParams p(4, 3);
  const MlidRouting scheme(p);
  const auto root = SwitchLabel::from_digits(p, 0, digits({1, 1}));
  for (Lid lid = 17; lid <= 20; ++lid) {
    EXPECT_EQ(int(scheme.output_port(root, lid)), 2);  // p0 + 1
  }
}

TEST(Forwarding, LftCoversEveryAssignedLidOnEverySwitch) {
  const FatTreeParams p(4, 3);
  const FatTreeFabric fabric(p);
  for (const std::string_view kind : {"SLID", "MLID"}) {
    const auto scheme = make_scheme(kind, fabric);
    for (SwitchId sw = 0; sw < p.num_switches(); ++sw) {
      const Lft lft = scheme->build_lft(sw);
      EXPECT_EQ(lft.max_lid(), scheme->max_lid());
      for (Lid lid = 1; lid <= scheme->max_lid(); ++lid) {
        ASSERT_TRUE(lft.has(lid))
            << kind << " switch " << sw << " lid " << lid;
      }
    }
  }
}

TEST(Forwarding, PortsAreAlwaysWithinTheSwitchRadix) {
  const FatTreeParams p(8, 3);
  const MlidRouting scheme(p);
  for (SwitchId sw = 0; sw < p.num_switches(); ++sw) {
    const SwitchLabel label = switch_from_id(p, sw);
    const Lft lft = scheme.build_lft(sw);
    for (Lid lid = 1; lid <= scheme.max_lid(); ++lid) {
      const int port = lft.lookup(lid);
      EXPECT_GE(port, 1);
      EXPECT_LE(port, p.m());
      if (label.level() == 0) {
        EXPECT_LE(port, num_down_ports(p, 0)) << "roots have no up ports";
      }
    }
  }
}

/// Equations (1) and (2) as the paper states them, on labels: descend by
/// the destination's digit p_l when it lies below the switch, else ascend
/// by base-(m/2) digit n-1-l of lid - 1.
PortId equation_port(const FatTreeParams& p, Lmc lmc, const SwitchLabel& sw,
                     Lid lid) {
  const NodeLabel dest = NodeLabel::from_pid(p, (lid - 1) >> lmc);
  if (reachable_downward(p, sw, dest)) {
    return static_cast<PortId>(dest.digit(sw.level()) + kPortShift);
  }
  const auto half = static_cast<std::uint32_t>(p.half());
  const std::uint32_t up = radix_digit(lid - 1, half, p.n() - 1 - sw.level());
  return static_cast<PortId>(up + half + kPortShift);
}

TEST(Forwarding, ClosedFormMatchesTheLabelEquationsOnEverySwitchAndLid) {
  for (const FatTreeParams& p :
       {FatTreeParams(4, 2), FatTreeParams(4, 3), FatTreeParams(8, 3),
        FatTreeParams::kary(4, 3)}) {
    std::vector<std::unique_ptr<FatTreeRouting>> schemes;
    schemes.push_back(std::make_unique<SlidRouting>(p));
    schemes.push_back(std::make_unique<MlidRouting>(p));
    for (const Lmc lmc : {Lmc{1}, Lmc{2}}) {
      if (lmc <= p.mlid_lmc()) {
        schemes.push_back(std::make_unique<PartialMlidRouting>(p, lmc));
      }
    }
    for (const auto& scheme : schemes) {
      SCOPED_TRACE(::testing::Message()
                   << scheme->name() << " lmc " << int(scheme->lmc()) << " FT("
                   << p.m() << ", " << p.n() << ") p0 radix " << p.p0_radix());
      for (SwitchId sw = 0; sw < p.num_switches(); ++sw) {
        const SwitchLabel label = switch_from_id(p, sw);
        const Lft lft = scheme->build_lft(sw);
        for (Lid lid = 1; lid <= scheme->max_lid(); ++lid) {
          const PortId want = equation_port(p, scheme->lmc(), label, lid);
          ASSERT_EQ(scheme->formula_port(sw, lid), want)
              << "switch " << sw << " lid " << lid;
          ASSERT_EQ(scheme->output_port(label, lid), want);
          ASSERT_EQ(lft.lookup(lid), want);
        }
      }
    }
  }
}

TEST(Forwarding, SlidUpPortsStripeByDestination) {
  // With one LID per node, Equation (2) consumes the PID's low digits:
  // destinations under different leaf ports of a remote subtree use
  // different up ports, spreading *per-destination* load (Figure 7).
  const FatTreeParams p(4, 3);
  const SlidRouting scheme(p);
  const auto leaf = SwitchLabel::from_digits(p, 2, digits({0, 0}));
  // P(100) has PID 4 -> lid 5, (lid-1) digit0 base2 = 0 -> port 3;
  // P(101) has PID 5 -> lid 6, digit0 = 1 -> port 4.
  EXPECT_EQ(int(scheme.output_port(leaf, 5)), 3);
  EXPECT_EQ(int(scheme.output_port(leaf, 6)), 4);
}

}  // namespace
}  // namespace mlid
