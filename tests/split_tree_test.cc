#include "overlay/split_tree.h"

#include <gtest/gtest.h>

#include "store/local_store.h"

namespace ripple {
namespace {

// The per-peer shape SplitTree::Validate reads.
struct ZonePeer {
  Rect zone;
  LocalStore store;
};

std::vector<ZonePeer> ZonesOf(const SplitTree& tree, size_t slots) {
  std::vector<ZonePeer> peers(slots);
  for (PeerId id : tree.LivePeers()) peers[id].zone = tree.Zone(id);
  return peers;
}

// Peer 0 keeps [0, .5) x [0, 1); peer 1 takes [.5, 1] x [0, .5) and peer 2
// [.5, 1] x [.5, 1]: the root's right child is internal.
SplitTree ThreeZones() {
  SplitTree tree(Rect::Unit(2));
  EXPECT_EQ(tree.Split(0, 0, 0.5, /*fresh_takes_lower=*/false), 1u);
  EXPECT_EQ(tree.Split(1, 1, 0.5, /*fresh_takes_lower=*/false), 2u);
  return tree;
}

TEST(SplitTreeTest, PointOnSplitPlaneBelongsToUpperHalf) {
  const SplitTree tree = ThreeZones();
  EXPECT_EQ(tree.Owner(Point{0.5, 0.25}), 1u);
  EXPECT_EQ(tree.Owner(Point{0.75, 0.5}), 2u);
  EXPECT_EQ(tree.Owner(Point{0.4999, 0.5}), 0u);
}

TEST(SplitTreeTest, PointOnUpperFaceBelongsToLastZone) {
  const SplitTree tree = ThreeZones();
  EXPECT_EQ(tree.Owner(Point{1.0, 1.0}), 2u);
  EXPECT_EQ(tree.Owner(Point{1.0, 0.25}), 1u);
  EXPECT_EQ(tree.Owner(Point{0.25, 1.0}), 0u);
}

TEST(SplitTreeTest, SplitHandsTheFreshIdTheChosenHalf) {
  SplitTree tree(Rect::Unit(2));
  const PeerId fresh = tree.Split(0, 1, 0.25, /*fresh_takes_lower=*/true);
  EXPECT_EQ(tree.Zone(fresh), Rect(Point{0.0, 0.0}, Point{1.0, 0.25}));
  EXPECT_EQ(tree.Zone(0), Rect(Point{0.0, 0.25}, Point{1.0, 1.0}));
  EXPECT_EQ(tree.node(1).leaf_peer, fresh);  // the left child is lower
  EXPECT_EQ(tree.NumPeers(), 2u);
}

TEST(SplitTreeTest, DepartureToASiblingLeaf) {
  SplitTree tree = ThreeZones();
  SplitTree::Departure plan;
  ASSERT_TRUE(tree.PlanDeparture(2, &plan).ok());
  EXPECT_FALSE(plan.takeover());
  EXPECT_EQ(plan.absorber, 1u);
  EXPECT_EQ(plan.vacated, 2u);
  EXPECT_EQ(plan.pair, 2);  // the root's right child
  tree.CommitDeparture(plan);
  EXPECT_FALSE(tree.IsLive(2));
  EXPECT_EQ(tree.Zone(1), Rect(Point{0.5, 0.0}, Point{1.0, 1.0}));
  EXPECT_TRUE(tree.node(2).IsLeaf());
  EXPECT_TRUE(tree.Validate(ZonesOf(tree, 3)).ok());
}

TEST(SplitTreeTest, DepartureTakesOverFromAnInternalSibling) {
  SplitTree tree = ThreeZones();
  const Rect zone0 = tree.Zone(0);
  SplitTree::Departure plan;
  ASSERT_TRUE(tree.PlanDeparture(0, &plan).ok());
  ASSERT_TRUE(plan.takeover());
  EXPECT_EQ(plan.absorber, 1u);  // u: the pair's left leaf
  EXPECT_EQ(plan.vacated, 2u);   // v: the pair's right leaf
  EXPECT_EQ(plan.pair, 2);
  tree.CommitDeparture(plan);
  EXPECT_FALSE(tree.IsLive(0));
  EXPECT_EQ(tree.Zone(2), zone0);  // v moved into the leaving peer's leaf
  EXPECT_EQ(tree.node(1).leaf_peer, 2u);
  EXPECT_EQ(tree.Zone(1), Rect(Point{0.5, 0.0}, Point{1.0, 1.0}));
  EXPECT_EQ(tree.Owner(Point{0.1, 0.1}), 2u);
  EXPECT_TRUE(tree.Validate(ZonesOf(tree, 3)).ok());
}

TEST(SplitTreeTest, FreedNodesAndIdsAreReusedLastFreedFirst) {
  SplitTree tree = ThreeZones();  // nodes 0..4, peers 0..2
  ASSERT_EQ(tree.Split(0, 1, 0.5, false), 3u);  // nodes 5, 6 under node 1
  SplitTree::Departure plan;
  ASSERT_TRUE(tree.PlanDeparture(2, &plan).ok());  // frees nodes 3, 4
  tree.CommitDeparture(plan);
  ASSERT_TRUE(tree.PlanDeparture(3, &plan).ok());  // frees nodes 5, 6
  tree.CommitDeparture(plan);
  ASSERT_EQ(tree.NumPeers(), 2u);
  // Ids come back as 3 then 2; nodes as 6, 5, then 4, 3.
  EXPECT_EQ(tree.Split(0, 0, 0.25, false), 3u);
  EXPECT_EQ(tree.node(6).leaf_peer, 0u);
  EXPECT_EQ(tree.node(5).leaf_peer, 3u);
  EXPECT_EQ(tree.node(6).parent, 1);
  EXPECT_EQ(tree.Split(1, 1, 0.5, false), 2u);
  EXPECT_EQ(tree.node(4).leaf_peer, 1u);
  EXPECT_EQ(tree.node(3).leaf_peer, 2u);
  EXPECT_EQ(tree.Split(2, 0, 0.75, false), 4u);  // no free id: a new slot
  EXPECT_TRUE(tree.Validate(ZonesOf(tree, 5)).ok());
}

TEST(SplitTreeTest, DepartureRefusesDeadAndLastPeers) {
  SplitTree tree(Rect::Unit(2));
  SplitTree::Departure plan;
  EXPECT_EQ(tree.PlanDeparture(0, &plan).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(tree.PlanDeparture(7, &plan).code(), StatusCode::kNotFound);
  Rng rng(3);
  const Rng before = rng;
  EXPECT_EQ(tree.RandomDeparting(&rng), 0u);
  EXPECT_EQ(rng.UniformU64(1000), Rng(before).UniformU64(1000))
      << "one peer left: no draw";
}

TEST(SplitTreeTest, ValidateReportsAZoneThatDiffersFromItsLeaf) {
  const SplitTree tree = ThreeZones();
  std::vector<ZonePeer> peers = ZonesOf(tree, 3);
  ASSERT_TRUE(tree.Validate(peers).ok());
  peers[1].zone = Rect(Point{0.5, 0.0}, Point{1.0, 0.6});
  const Status status = tree.Validate(peers);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("peer 1"), std::string::npos)
      << status.ToString();
}

TEST(SplitTreeTest, ValidateReportsARowOutsideItsZone) {
  const SplitTree tree = ThreeZones();
  std::vector<ZonePeer> peers = ZonesOf(tree, 3);
  peers[0].store.Add(Tuple{1, Point{0.5, 0.5}});  // on peer 1/2's side
  EXPECT_EQ(tree.Validate(peers).code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace ripple
