#include "overlay/can/can.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "shape_hash.h"

namespace ripple {
namespace {

CanOverlay GrowCan(size_t peers, int dims, uint64_t seed) {
  CanOptions opt;
  opt.dims = dims;
  opt.seed = seed;
  CanOverlay overlay(opt);
  while (overlay.NumPeers() < peers) overlay.Join();
  return overlay;
}

TEST(CanTest, Bootstrap) {
  CanOverlay overlay(CanOptions{.dims = 2, .seed = 1});
  EXPECT_EQ(overlay.NumPeers(), 1u);
  EXPECT_TRUE(overlay.Validate().ok());
}

TEST(CanTest, FirstJoinCreatesMutualNeighbors) {
  CanOverlay overlay(CanOptions{.dims = 2, .seed = 1});
  overlay.Join();
  ASSERT_EQ(overlay.NumPeers(), 2u);
  const auto live = overlay.LivePeers();
  EXPECT_EQ(overlay.GetPeer(live[0]).neighbors.size(), 1u);
  EXPECT_EQ(overlay.GetPeer(live[1]).neighbors.size(), 1u);
  ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
}

TEST(CanTest, GrowthInvariants) {
  for (int dims : {2, 3, 5}) {
    CanOverlay overlay = GrowCan(128, dims, 17);
    ASSERT_TRUE(overlay.Validate().ok())
        << "dims=" << dims << ": " << overlay.Validate().ToString();
  }
}

TEST(CanTest, NeighborCountGrowsWithDims) {
  // The paper notes DSL exploits CAN's larger neighborhoods at high
  // dimensionality.
  auto avg_neighbors = [](const CanOverlay& overlay) {
    size_t total = 0;
    for (PeerId id : overlay.LivePeers()) {
      total += overlay.GetPeer(id).neighbors.size();
    }
    return static_cast<double>(total) / overlay.NumPeers();
  };
  CanOverlay low = GrowCan(256, 2, 5);
  CanOverlay high = GrowCan(256, 6, 5);
  EXPECT_GT(avg_neighbors(high), avg_neighbors(low));
}

TEST(CanTest, RoutingReachesResponsiblePeer) {
  CanOverlay overlay = GrowCan(200, 3, 23);
  Rng rng(7);
  const auto live = overlay.LivePeers();
  for (int trial = 0; trial < 100; ++trial) {
    Point p{rng.UniformDouble(), rng.UniformDouble(), rng.UniformDouble()};
    const PeerId from = live[rng.UniformU64(live.size())];
    uint64_t hops = 0;
    EXPECT_EQ(overlay.RouteFrom(from, p, &hops), overlay.ResponsiblePeer(p));
    EXPECT_LT(hops, overlay.NumPeers());
  }
}

TEST(CanTest, FloodVisitsEveryPeerOnce) {
  CanOverlay overlay = GrowCan(100, 2, 29);
  Rng rng(11);
  std::set<PeerId> visited;
  uint64_t depth = overlay.Flood(overlay.RandomPeer(&rng),
                                 [&](PeerId id, uint64_t) {
                                   EXPECT_TRUE(visited.insert(id).second);
                                 });
  EXPECT_EQ(visited.size(), overlay.NumPeers());
  EXPECT_GT(depth, 0u);
  EXPECT_LT(depth, overlay.NumPeers());
}

TEST(CanTest, TuplesFollowZoneSplits) {
  CanOverlay overlay(CanOptions{.dims = 2, .seed = 31});
  Rng rng(13);
  for (uint64_t i = 0; i < 300; ++i) {
    overlay.InsertTuple(
        Tuple{i, Point{rng.UniformDouble(), rng.UniformDouble()}});
  }
  while (overlay.NumPeers() < 64) overlay.Join();
  EXPECT_EQ(overlay.TotalTuples(), 300u);
  ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
}

TEST(CanTest, ChurnKeepsInvariantsAndData) {
  CanOverlay overlay = GrowCan(96, 3, 37);
  Rng rng(17);
  for (uint64_t i = 0; i < 400; ++i) {
    overlay.InsertTuple(Tuple{i, Point{rng.UniformDouble(),
                                       rng.UniformDouble(),
                                       rng.UniformDouble()}});
  }
  Rng churn(19);
  while (overlay.NumPeers() > 10) {
    ASSERT_TRUE(overlay.LeaveRandom(&churn).ok());
    ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
  }
  EXPECT_EQ(overlay.TotalTuples(), 400u);
  while (overlay.NumPeers() < 50) overlay.Join();
  ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
  EXPECT_EQ(overlay.TotalTuples(), 400u);
}

TEST(CanTest, LeaveLastPeerFails) {
  CanOverlay overlay(CanOptions{.dims = 2, .seed = 1});
  EXPECT_EQ(overlay.Leave(overlay.LivePeers()[0]).code(),
            StatusCode::kFailedPrecondition);
}

// Runs a seeded schedule (inserts, joins, departures of both kinds, then
// three joins that reuse freed ids and tree nodes) and fingerprints every
// live peer: id, zone, depth, neighbor list in stored order and row order.
uint64_t CanChurnShape(int dims, DepartureCounts* departures) {
  CanOverlay overlay(CanOptions{.dims = dims, .seed = 7});
  Rng rng(29);
  uint64_t next_tuple = 0;
  auto insert = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Point key(dims);
      for (int d = 0; d < dims; ++d) key[d] = rng.UniformDouble();
      overlay.InsertTuple(Tuple{next_tuple++, key});
    }
  };
  insert(200);
  for (int i = 0; i < 32; ++i) overlay.Join();
  insert(100);
  Rng churn(31);
  while (overlay.NumPeers() > 14) {
    EXPECT_TRUE(CountDeparture(
                    overlay, [&] { return overlay.LeaveRandom(&churn); },
                    departures)
                    .ok());
  }
  for (size_t pick : {size_t{0}, size_t{5}, size_t{9}}) {
    const PeerId id = overlay.LivePeers()[pick];
    EXPECT_TRUE(
        CountDeparture(overlay, [&] { return overlay.Leave(id); }, departures)
            .ok());
  }
  EXPECT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();

  ShapeHash h;
  for (int i = 0; i < 3; ++i) h.Mix(static_cast<uint64_t>(overlay.Join()));
  EXPECT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
  h.Mix(static_cast<uint64_t>(overlay.NumPeers()));
  h.Mix(static_cast<uint64_t>(overlay.TotalTuples()));
  for (PeerId id : overlay.LivePeers()) {
    const CanOverlay::Peer& p = overlay.GetPeer(id);
    h.Mix(static_cast<uint64_t>(id));
    h.Mix(p.zone);
    h.Mix(static_cast<uint64_t>(p.depth));
    h.Mix(static_cast<uint64_t>(p.neighbors.size()));
    for (PeerId nb : p.neighbors) h.Mix(static_cast<uint64_t>(nb));
    h.Mix(p.store.flat().ids());
  }
  return h.value();
}

// Recorded before CAN moved onto SplitTree; see MidasTest's twin.
TEST(CanTest, ChurnShapeIsPinned) {
  struct Case {
    int dims;
    uint64_t shape;
  };
  const Case cases[] = {{2, 0xc5d30110aac3ce73ull},
                         {3, 0x9c8bd2ba2c1e4824ull}};
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "dims=" << c.dims);
    DepartureCounts departures;
    const uint64_t shape = CanChurnShape(c.dims, &departures);
    EXPECT_GT(departures.sibling_merges, 0);
    EXPECT_GT(departures.takeovers, 0);
    EXPECT_EQ(shape, c.shape) << std::hex << "0x" << shape;
  }
}

}  // namespace
}  // namespace ripple
