#include "overlay/midas/midas.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "overlay/midas/patterns.h"

namespace ripple {
namespace {

MidasOverlay GrowOverlay(size_t peers, int dims, uint64_t seed,
                         bool patterns = false) {
  MidasOptions opt;
  opt.dims = dims;
  opt.seed = seed;
  opt.border_pattern_links = patterns;
  MidasOverlay overlay(opt);
  while (overlay.NumPeers() < peers) overlay.Join();
  return overlay;
}

TEST(MidasTest, BootstrapSinglePeer) {
  MidasOverlay overlay(MidasOptions{.dims = 2, .seed = 1});
  EXPECT_EQ(overlay.NumPeers(), 1u);
  EXPECT_EQ(overlay.MaxDepth(), 0);
  EXPECT_TRUE(overlay.Validate().ok());
  const auto live = overlay.LivePeers();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(overlay.GetPeer(live[0]).zone, Rect::Unit(2));
  EXPECT_TRUE(overlay.GetPeer(live[0]).links.empty());
}

TEST(MidasTest, FirstJoinSplitsDomain) {
  MidasOverlay overlay(MidasOptions{.dims = 2, .seed = 1});
  const PeerId n = overlay.Join();
  EXPECT_EQ(overlay.NumPeers(), 2u);
  const auto& fresh = overlay.GetPeer(n);
  EXPECT_EQ(fresh.depth(), 1);
  ASSERT_EQ(fresh.links.size(), 1u);
  // The two peers link to each other, with each other's zone as region.
  const PeerId other = fresh.links[0].target;
  const auto& old = overlay.GetPeer(other);
  EXPECT_EQ(fresh.links[0].region, old.zone);
  ASSERT_EQ(old.links.size(), 1u);
  EXPECT_EQ(old.links[0].target, n);
  EXPECT_EQ(old.links[0].region, fresh.zone);
  EXPECT_TRUE(overlay.Validate().ok());
}

TEST(MidasTest, GrowthInvariants) {
  for (int dims : {2, 5}) {
    MidasOverlay overlay = GrowOverlay(256, dims, 42);
    EXPECT_EQ(overlay.NumPeers(), 256u);
    ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
    // Expected depth is O(log n): generous sanity bounds.
    EXPECT_GE(overlay.MaxDepth(), 8);   // at least log2(256)
    EXPECT_LE(overlay.MaxDepth(), 40);
  }
}

TEST(MidasTest, ZonesPartitionDomainPoints) {
  MidasOverlay overlay = GrowOverlay(64, 3, 7);
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    Point p{rng.UniformDouble(), rng.UniformDouble(), rng.UniformDouble()};
    int owners = 0;
    for (PeerId id : overlay.LivePeers()) {
      if (overlay.GetPeer(id).zone.ContainsHalfOpen(p, overlay.domain())) {
        ++owners;
      }
    }
    EXPECT_EQ(owners, 1) << p.ToString();
  }
}

TEST(MidasTest, LinkRegionsPartitionDomain) {
  // A peer's zone plus its link regions tile the whole domain — the
  // property RIPPLE's restriction-area correctness rests on.
  MidasOverlay overlay = GrowOverlay(128, 2, 11);
  Rng rng(5);
  for (PeerId id : overlay.LivePeers()) {
    const auto& peer = overlay.GetPeer(id);
    double volume = peer.zone.Volume();
    for (const auto& link : peer.links) volume += link.region.Volume();
    EXPECT_NEAR(volume, 1.0, 1e-9);
    // Regions must be pairwise disjoint (sample a few points).
    for (int i = 0; i < 20; ++i) {
      Point p{rng.UniformDouble(), rng.UniformDouble()};
      int hits = peer.zone.ContainsHalfOpen(p, overlay.domain()) ? 1 : 0;
      for (const auto& link : peer.links) {
        if (link.region.ContainsHalfOpen(p, overlay.domain())) ++hits;
      }
      EXPECT_EQ(hits, 1);
    }
  }
}

TEST(MidasTest, TupleRoutingAndOwnership) {
  MidasOverlay overlay = GrowOverlay(64, 2, 13);
  Rng rng(3);
  for (uint64_t i = 0; i < 300; ++i) {
    Point p{rng.UniformDouble(), rng.UniformDouble()};
    overlay.InsertTuple(Tuple{i, p});
  }
  EXPECT_EQ(overlay.TotalTuples(), 300u);
  EXPECT_TRUE(overlay.Validate().ok());
}

TEST(MidasTest, PeerLevelRoutingReachesResponsiblePeer) {
  MidasOverlay overlay = GrowOverlay(200, 3, 17);
  Rng rng(23);
  const auto live = overlay.LivePeers();
  for (int trial = 0; trial < 100; ++trial) {
    Point p{rng.UniformDouble(), rng.UniformDouble(), rng.UniformDouble()};
    const PeerId from = live[rng.UniformU64(live.size())];
    uint64_t hops = 0;
    const PeerId got = overlay.RouteFrom(from, p, &hops);
    EXPECT_EQ(got, overlay.ResponsiblePeer(p));
    EXPECT_LE(hops, static_cast<uint64_t>(overlay.MaxDepth()));
  }
}

TEST(MidasTest, SplitsMoveTuplesToNewOwner) {
  MidasOverlay overlay(MidasOptions{.dims = 2, .seed = 5});
  Rng rng(29);
  for (uint64_t i = 0; i < 200; ++i) {
    overlay.InsertTuple(
        Tuple{i, Point{rng.UniformDouble(), rng.UniformDouble()}});
  }
  for (int i = 0; i < 63; ++i) overlay.Join();
  EXPECT_EQ(overlay.TotalTuples(), 200u);
  ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
}

TEST(MidasTest, LeaveMergesZonesAndKeepsData) {
  MidasOverlay overlay = GrowOverlay(64, 2, 19);
  Rng rng(31);
  for (uint64_t i = 0; i < 500; ++i) {
    overlay.InsertTuple(
        Tuple{i, Point{rng.UniformDouble(), rng.UniformDouble()}});
  }
  Rng churn(37);
  while (overlay.NumPeers() > 8) {
    ASSERT_TRUE(overlay.LeaveRandom(&churn).ok());
    ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
  }
  EXPECT_EQ(overlay.TotalTuples(), 500u);
}

TEST(MidasTest, LeaveLastPeerFails) {
  MidasOverlay overlay(MidasOptions{.dims = 2, .seed = 1});
  const auto live = overlay.LivePeers();
  EXPECT_EQ(overlay.Leave(live[0]).code(), StatusCode::kFailedPrecondition);
}

TEST(MidasTest, LeaveUnknownPeerFails) {
  MidasOverlay overlay = GrowOverlay(4, 2, 3);
  EXPECT_EQ(overlay.Leave(9999).code(), StatusCode::kNotFound);
}

TEST(MidasTest, ChurnCycleIncreaseDecreaseIncrease) {
  // The paper's dynamic topology: grow, shrink, grow again; invariants must
  // hold throughout.
  MidasOverlay overlay(MidasOptions{.dims = 3, .seed = 21});
  Rng rng(41);
  for (uint64_t i = 0; i < 300; ++i) {
    overlay.InsertTuple(Tuple{i, Point{rng.UniformDouble(),
                                       rng.UniformDouble(),
                                       rng.UniformDouble()}});
  }
  while (overlay.NumPeers() < 128) overlay.Join();
  ASSERT_TRUE(overlay.Validate().ok());
  Rng churn(43);
  while (overlay.NumPeers() > 16) ASSERT_TRUE(overlay.LeaveRandom(&churn).ok());
  ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
  while (overlay.NumPeers() < 64) overlay.Join();
  ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
  EXPECT_EQ(overlay.TotalTuples(), 300u);
}

TEST(MidasTest, SubtreeRectMatchesZones) {
  MidasOverlay overlay = GrowOverlay(32, 2, 23);
  for (PeerId id : overlay.LivePeers()) {
    const auto& peer = overlay.GetPeer(id);
    EXPECT_EQ(overlay.SubtreeRect(peer.id), peer.zone);
    // Ancestor rects cover the zone.
    for (int depth = 0; depth < peer.depth(); ++depth) {
      EXPECT_TRUE(
          overlay.SubtreeRect(peer.id.Prefix(depth)).Covers(peer.zone));
    }
  }
}

TEST(MidasTest, IntersectAreaRejectsFaceContact) {
  Rect a(Point{0.0, 0.0}, Point{0.5, 1.0});
  Rect b(Point{0.5, 0.0}, Point{1.0, 1.0});
  Rect out;
  EXPECT_FALSE(MidasOverlay::IntersectArea(a, b, &out));
  Rect c(Point{0.25, 0.0}, Point{0.75, 1.0});
  ASSERT_TRUE(MidasOverlay::IntersectArea(a, c, &out));
  EXPECT_EQ(out, Rect(Point{0.25, 0.0}, Point{0.5, 1.0}));
}

// The one-pass IntersectArea against its three-call definition. Corners
// come from a 5-point grid, so shared faces and corners, nesting,
// identical rects and zero-width rects are common among the pairs.
TEST(MidasTest, IntersectAreaMatchesThreeCallDefinition) {
  Rng rng(61);
  const auto random_rect = [&rng](int dims) {
    Point lo(dims);
    Point hi(dims);
    for (int d = 0; d < dims; ++d) {
      const int64_t a = rng.UniformInt(0, 4);
      const int64_t b = rng.UniformInt(0, 4);
      lo[d] = 0.25 * static_cast<double>(std::min(a, b));
      hi[d] = 0.25 * static_cast<double>(std::max(a, b));
    }
    return Rect(lo, hi);
  };
  for (const int dims : {1, 2, 4, kMaxDims}) {
    size_t kept = 0;
    for (int trial = 0; trial < 4000; ++trial) {
      const Rect a = random_rect(dims);
      const Rect b = trial % 8 == 0 ? a : random_rect(dims);
      const bool want = a.Intersects(b) && !a.Intersection(b).Degenerate();
      Rect out;
      ASSERT_EQ(MidasOverlay::IntersectArea(a, b, &out), want)
          << a.ToString() << " " << b.ToString();
      if (!want) continue;
      EXPECT_EQ(out, a.Intersection(b)) << a.ToString() << " " << b.ToString();
      kept += 1;
    }
    EXPECT_GT(kept, 0u) << "dims " << dims;
  }
}

TEST(MidasTest, BorderPatternOverlayStaysValid) {
  MidasOverlay overlay = GrowOverlay(256, 2, 47, /*patterns=*/true);
  ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
  Rng churn(53);
  while (overlay.NumPeers() > 32) {
    ASSERT_TRUE(overlay.LeaveRandom(&churn).ok());
  }
  ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
}

TEST(MidasTest, BorderPatternLinksPreferPatternPeers) {
  // With the optimization on, links should target border-pattern peers more
  // often than without it.
  auto pattern_link_fraction = [](const MidasOverlay& overlay) {
    size_t pattern_links = 0, total = 0;
    for (PeerId id : overlay.LivePeers()) {
      for (const auto& link : overlay.GetPeer(id).links) {
        ++total;
        if (MatchesAnyBorderPattern(overlay.GetPeer(link.target).id,
                                    overlay.dims())) {
          ++pattern_links;
        }
      }
    }
    return static_cast<double>(pattern_links) / static_cast<double>(total);
  };
  MidasOverlay plain = GrowOverlay(512, 2, 61, /*patterns=*/false);
  MidasOverlay optimized = GrowOverlay(512, 2, 61, /*patterns=*/true);
  EXPECT_GT(pattern_link_fraction(optimized),
            pattern_link_fraction(plain) + 0.05);
}

TEST(MidasTest, RandomPeerIsLive) {
  MidasOverlay overlay = GrowOverlay(50, 2, 67);
  Rng churn(71);
  while (overlay.NumPeers() > 10) ASSERT_TRUE(overlay.LeaveRandom(&churn).ok());
  Rng rng(73);
  for (int i = 0; i < 100; ++i) {
    const PeerId id = overlay.RandomPeer(&rng);
    EXPECT_NO_FATAL_FAILURE(overlay.GetPeer(id));
  }
}

}  // namespace
}  // namespace ripple
