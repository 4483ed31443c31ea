#include "overlay/baton/baton.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ripple {
namespace {

TEST(BatonTest, SinglePeerOwnsEverything) {
  BatonOverlay overlay(1, BatonOptions{.dims = 2});
  EXPECT_TRUE(overlay.Validate().ok());
  EXPECT_EQ(overlay.GetPeer(0).range_lo, 0u);
  EXPECT_EQ(overlay.GetPeer(0).range_hi, overlay.zorder().key_space_size());
}

TEST(BatonTest, StructureInvariantsAcrossSizes) {
  for (size_t n : {2u, 3u, 7u, 64u, 100u, 255u, 1000u}) {
    BatonOverlay overlay(n, BatonOptions{.dims = 3});
    ASSERT_TRUE(overlay.Validate().ok())
        << "n=" << n << ": " << overlay.Validate().ToString();
  }
}

TEST(BatonTest, RoutingTableSizesAreLogarithmic) {
  BatonOverlay overlay(1024, BatonOptions{.dims = 2});
  for (PeerId id = 0; id < overlay.NumPeers(); ++id) {
    const auto& p = overlay.GetPeer(id);
    EXPECT_LE(p.left_table.size() + p.right_table.size(), 2u * 10u);
  }
}

TEST(BatonTest, RoutingReachesKeyOwner) {
  BatonOverlay overlay(500, BatonOptions{.dims = 3});
  Rng rng(7);
  uint64_t max_hops = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t key = rng.UniformU64(overlay.zorder().key_space_size());
    const PeerId from = overlay.RandomPeer(&rng);
    uint64_t hops = 0;
    EXPECT_EQ(overlay.RouteToKey(from, key, &hops),
              overlay.ResponsibleForKey(key));
    max_hops = std::max(max_hops, hops);
  }
  // BATON guarantees O(log n) routing; allow generous slack.
  EXPECT_LE(max_hops, 4 * 9u);  // 4 * log2(500)
}

TEST(BatonTest, TupleInsertionLandsInRange) {
  BatonOverlay overlay(64, BatonOptions{.dims = 2});
  Rng rng(11);
  for (uint64_t i = 0; i < 500; ++i) {
    overlay.InsertTuple(
        Tuple{i, Point{rng.UniformDouble(), rng.UniformDouble()}});
  }
  EXPECT_EQ(overlay.TotalTuples(), 500u);
  ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
}

TEST(BatonTest, RegionsTileTheDomain) {
  BatonOverlay overlay(37, BatonOptions{.dims = 2});
  double volume = 0.0;
  for (PeerId id = 0; id < overlay.NumPeers(); ++id) {
    for (const Rect& r : overlay.RegionOf(id)) volume += r.Volume();
  }
  EXPECT_NEAR(volume, 1.0, 1e-9);
}

TEST(BatonTest, RegionContainsOwnTuples) {
  BatonOverlay overlay(50, BatonOptions{.dims = 3});
  Rng rng(13);
  for (uint64_t i = 0; i < 300; ++i) {
    overlay.InsertTuple(Tuple{i, Point{rng.UniformDouble(),
                                       rng.UniformDouble(),
                                       rng.UniformDouble()}});
  }
  for (PeerId id = 0; id < overlay.NumPeers(); ++id) {
    const auto region = overlay.RegionOf(id);
    for (const Tuple& t : overlay.GetPeer(id).store.Snapshot()) {
      bool contained = false;
      for (const Rect& r : region) {
        if (r.Contains(t.key)) {
          contained = true;
          break;
        }
      }
      EXPECT_TRUE(contained) << t.ToString();
    }
  }
}

TEST(BatonTest, RegionsFollowRebalancedRanges) {
  BatonOverlay overlay(29, BatonOptions{.dims = 2});
  Rng rng(17);
  TupleVec tuples;
  for (uint64_t i = 0; i < 400; ++i) {
    // Skewed towards the origin, so the quantile ranges differ from the
    // uniform slices.
    const double x = rng.UniformDouble(), y = rng.UniformDouble();
    tuples.push_back(Tuple{i, Point{x * x * 0.3, y * y * 0.3}});
  }
  const std::vector<Rect> before = overlay.RegionOf(0);
  overlay.RebalanceToData(tuples);
  EXPECT_NE(overlay.RegionOf(0), before);
  double volume = 0.0;
  for (PeerId id = 0; id < overlay.NumPeers(); ++id) {
    const auto& p = overlay.GetPeer(id);
    EXPECT_EQ(overlay.RegionOf(id),
              overlay.zorder().DecomposeInterval(p.range_lo, p.range_hi - 1));
    for (const Rect& r : overlay.RegionOf(id)) volume += r.Volume();
  }
  EXPECT_NEAR(volume, 1.0, 1e-9);
}

TEST(BatonTest, AdjacentLinksFollowInOrder) {
  BatonOverlay overlay(31, BatonOptions{.dims = 2});
  for (PeerId id = 0; id < overlay.NumPeers(); ++id) {
    const auto& p = overlay.GetPeer(id);
    if (p.adj_left != kInvalidPeer) {
      EXPECT_EQ(overlay.GetPeer(p.adj_left).range_hi, p.range_lo);
    } else {
      EXPECT_EQ(p.range_lo, 0u);
    }
    if (p.adj_right != kInvalidPeer) {
      EXPECT_EQ(overlay.GetPeer(p.adj_right).range_lo, p.range_hi);
    } else {
      EXPECT_EQ(p.range_hi, overlay.zorder().key_space_size());
    }
  }
}

}  // namespace
}  // namespace ripple
