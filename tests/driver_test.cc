// Tests for the seeded query drivers: cost accounting, bootstrap
// correctness and cross-overlay behaviour.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/datasets.h"
#include "overlay/chord/chord.h"
#include "overlay/midas/midas.h"
#include "queries/skyline_driver.h"
#include "queries/topk_driver.h"
#include "ripple/engine.h"
#include "sim/async_engine.h"
#include "store/local_algos.h"

namespace ripple {
namespace {

struct Net {
  MidasOverlay overlay;
  TupleVec all;
};

Net MakeNet(size_t peers, size_t tuples, int dims, uint64_t seed) {
  MidasOptions opt;
  opt.dims = dims;
  opt.seed = seed;
  opt.split_rule = MidasSplitRule::kDataMedian;
  Net net{MidasOverlay(opt), {}};
  Rng rng(seed ^ 0x1111);
  net.all = data::MakeUniform(tuples, dims, &rng);
  for (const Tuple& t : net.all) net.overlay.InsertTuple(t);
  while (net.overlay.NumPeers() < peers) net.overlay.Join();
  return net;
}

TEST(SeededTopKTest, BootstrapCostsAreCharged) {
  Net net = MakeNet(128, 400, 3, 701);  // sparse: bootstrap walk needed
  LinearScorer scorer({-0.5, -0.25, -0.25});
  TopKQuery q{&scorer, 10};
  Engine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  Rng rng(7);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  const auto seeded = SeededTopK(net.overlay, engine, {.initiator = initiator, .query = q, .ripple = RippleParam::Fast()});
  // The same query run raw from the peak owner starts with m < k and must
  // flood its first hops; the bootstrap's witnesses are exactly what
  // avoids that, so the seeded run (bootstrap included) is cheaper.
  const PeerId peak_owner =
      net.overlay.ResponsiblePeer(scorer.Peak(net.overlay.domain()));
  const auto raw = engine.Run({.initiator = peak_owner, .query = q});
  EXPECT_LT(seeded.stats.peers_visited, raw.stats.peers_visited);
  // And the bootstrap itself is visible in the accounting: at least the
  // routing to the peak owner plus one gathered peer.
  EXPECT_GE(seeded.stats.latency_hops, 1u);
  ASSERT_EQ(seeded.answer.size(), q.k);
  const TupleVec want = SelectTopK(
      net.all, [&](const Point& p) { return scorer.Score(p); }, q.k);
  for (size_t i = 0; i < q.k; ++i) {
    EXPECT_EQ(seeded.answer[i].id, want[i].id);
  }
}

TEST(SeededTopKTest, InitiatorAtPeakHasMinimalBootstrap) {
  Net net = MakeNet(64, 2000, 2, 703);  // dense: peak owner has >= k
  LinearScorer scorer({-0.7, -0.3});
  TopKQuery q{&scorer, 5};
  Engine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  const PeerId peak_owner =
      net.overlay.ResponsiblePeer(scorer.Peak(net.overlay.domain()));
  const auto result = SeededTopK(net.overlay, engine, {.initiator = peak_owner, .query = q, .ripple = RippleParam::Fast()});
  // Routing is free (already there) and the walk stops at the first peer.
  const TupleVec want = SelectTopK(
      net.all, [&](const Point& p) { return scorer.Score(p); }, q.k);
  ASSERT_EQ(result.answer.size(), want.size());
  EXPECT_EQ(result.answer[0].id, want[0].id);
}

TEST(SeededSkylineTest, ConstraintCornerSeedsTheRun) {
  Net net = MakeNet(96, 1500, 2, 707);
  Engine<MidasOverlay, SkylinePolicy> engine(&net.overlay, SkylinePolicy{});
  Rng rng(11);
  SkylineQuery q;
  q.constraint = Rect(Point{0.5, 0.5}, Point{0.9, 0.9});
  TupleVec inside;
  for (const Tuple& t : net.all) {
    if (q.constraint->Contains(t.key)) inside.push_back(t);
  }
  auto result = SeededSkyline(net.overlay, engine, {.initiator = net.overlay.RandomPeer(&rng), .query = q, .ripple = RippleParam::Fast()});
  std::sort(result.answer.begin(), result.answer.end(), TupleIdLess());
  EXPECT_EQ(result.answer, ComputeSkyline(inside));
}

TEST(AsyncOverChordTest, TopKAgreesWithRecursiveEngine) {
  ChordOverlay overlay(48, ChordOptions{.dims = 2, .seed = 709});
  Rng rng(13);
  TupleVec all = data::MakeUniform(600, 2, &rng);
  for (const Tuple& t : all) overlay.InsertTuple(t);
  LinearScorer scorer({-0.6, -0.4});
  TopKQuery q{&scorer, 8};
  Engine<ChordOverlay, TopKPolicy> sync_engine(&overlay, TopKPolicy{});
  AsyncEngine<ChordOverlay, TopKPolicy> async_engine(&overlay, TopKPolicy{});
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Slow()}) {
    const PeerId initiator = overlay.RandomPeer(&rng);
    const auto s = sync_engine.Run({.initiator = initiator, .query = q, .ripple = r});
    const auto a = async_engine.Run({.initiator = initiator, .query = q, .ripple = r});
    ASSERT_EQ(a.answer.size(), s.answer.size()) << "r=" << r;
    for (size_t i = 0; i < s.answer.size(); ++i) {
      EXPECT_EQ(a.answer[i].id, s.answer[i].id);
    }
    EXPECT_EQ(a.stats.peers_visited, s.stats.peers_visited);
    EXPECT_EQ(a.stats.messages, s.stats.messages);
    // Chord areas are varint-coded arc segments: the recursive engine's
    // priced query frames must match the async engine's shipped ones.
    EXPECT_EQ(a.stats.tuples_shipped, s.stats.tuples_shipped) << "r=" << r;
    EXPECT_EQ(a.stats.bytes_on_wire, s.stats.bytes_on_wire) << "r=" << r;
  }
}

TEST(AsyncOverChordTest, DuplicationIsSuppressedNotDoubleCounted) {
  ChordOverlay overlay(48, ChordOptions{.dims = 2, .seed = 709});
  Rng rng(13);
  TupleVec all = data::MakeUniform(600, 2, &rng);
  for (const Tuple& t : all) overlay.InsertTuple(t);
  LinearScorer scorer({-0.6, -0.4});
  TopKQuery q{&scorer, 8};
  Engine<ChordOverlay, TopKPolicy> sync_engine(&overlay, TopKPolicy{});
  AsyncEngine<ChordOverlay, TopKPolicy> async_engine(&overlay, TopKPolicy{});
  for (const RippleParam r :
       {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    const PeerId initiator = overlay.RandomPeer(&rng);
    const auto s =
        sync_engine.Run({.initiator = initiator, .query = q, .ripple = r});
    // Every message duplicated: each copy of a forward must replay the
    // session its first copy opened, never open another.
    const auto a = async_engine.Run({.initiator = initiator,
                                     .query = q,
                                     .ripple = r,
                                     .fault = {.dup_rate = 1.0, .seed = 5}});
    EXPECT_TRUE(a.complete) << "r=" << r;
    ASSERT_EQ(a.answer.size(), s.answer.size()) << "r=" << r;
    for (size_t i = 0; i < s.answer.size(); ++i) {
      EXPECT_EQ(a.answer[i].id, s.answer[i].id);
    }
    EXPECT_GT(a.coverage.messages_duplicated, 0u) << "r=" << r;
    EXPECT_GT(a.coverage.duplicates_suppressed, 0u) << "r=" << r;
    EXPECT_EQ(a.stats.peers_visited, s.stats.peers_visited) << "r=" << r;
  }
}

TEST(ApproximateTopKTest, EpsilonInteractsSoundlyWithSeeding) {
  Net net = MakeNet(256, 3000, 3, 711);
  LinearScorer scorer({-0.3, -0.3, -0.4});
  Engine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  Rng rng(17);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  const TupleVec want = SelectTopK(
      net.all, [&](const Point& p) { return scorer.Score(p); }, 10);
  const double exact_kth = scorer.Score(want.back().key);
  for (double eps : {0.0, 0.05, 0.25}) {
    TopKQuery q{&scorer, 10, eps};
    const auto run = SeededTopK(net.overlay, engine, {.initiator = initiator, .query = q, .ripple = RippleParam::Slow()});
    ASSERT_EQ(run.answer.size(), 10u) << "eps=" << eps;
    // The returned k-th score is within eps of the exact k-th.
    EXPECT_GE(scorer.Score(run.answer.back().key) + eps, exact_kth);
  }
}

}  // namespace
}  // namespace ripple
