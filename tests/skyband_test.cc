#include "queries/skyband.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "data/datasets.h"
#include "oracle/oracle.h"
#include "overlay/midas/midas.h"
#include "queries/topk.h"
#include "queries/topk_driver.h"
#include "ripple/engine.h"

namespace ripple {
namespace {

TEST(KSkybandTest, MatchesBruteForce) {
  Rng rng(801);
  const TupleVec all = data::MakeUniform(300, 3, &rng);
  for (size_t k : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(ComputeKSkyband(all, k), oracle::Skyband(all, k)) << "k=" << k;
  }
}

TEST(KSkybandTest, OneBandIsSkyline) {
  Rng rng(803);
  const TupleVec all = data::MakeUniform(400, 4, &rng);
  EXPECT_EQ(ComputeKSkyband(all, 1), ComputeSkyline(all));
}

TEST(KSkybandTest, BandsAreNested) {
  Rng rng(805);
  const TupleVec all = data::MakeUniform(300, 2, &rng);
  TupleVec previous;
  for (size_t k = 1; k <= 5; ++k) {
    const TupleVec band = ComputeKSkyband(all, k);
    EXPECT_GE(band.size(), previous.size());
    std::set<uint64_t> ids;
    for (const Tuple& t : band) ids.insert(t.id);
    for (const Tuple& t : previous) EXPECT_TRUE(ids.count(t.id));
    previous = band;
  }
}

TEST(KSkybandTest, ZeroKAndEmptyInput) {
  Rng rng(807);
  const TupleVec all = data::MakeUniform(50, 2, &rng);
  EXPECT_TRUE(ComputeKSkyband(all, 0).empty());
  EXPECT_TRUE(ComputeKSkyband({}, 3).empty());
}

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
  Rng rng(seed ^ 0x4444);
  net.all = data::MakeUniform(tuples, dims, &rng);
  for (const Tuple& t : net.all) net.overlay.InsertTuple(t);
  while (net.overlay.NumPeers() < peers) net.overlay.Join();
  return net;
}

TEST(SkybandEngineTest, DistributedBandMatchesOracle) {
  Net net = MakeNet(64, 800, 3, 809);
  Engine<MidasOverlay, SkybandPolicy> engine(&net.overlay, SkybandPolicy{});
  Rng rng(5);
  for (size_t band : {1u, 3u, 5u}) {
    SkybandQuery q;
    q.band = band;
    const TupleVec want = ComputeKSkyband(net.all, band);
    for (const RippleParam r : {RippleParam::Fast(), RippleParam::Slow()}) {
      const auto result = engine.Run({.initiator = net.overlay.RandomPeer(&rng), .query = q, .ripple = r});
      ASSERT_EQ(result.answer.size(), want.size())
          << "band=" << band << " r=" << r;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(result.answer[i].id, want[i].id);
      }
    }
  }
}

TEST(SkybandEngineTest, WiderBandVisitsMorePeers) {
  Net net = MakeNet(128, 2000, 3, 811);
  Engine<MidasOverlay, SkybandPolicy> engine(&net.overlay, SkybandPolicy{});
  Rng rng(7);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  SkybandQuery narrow;
  narrow.band = 1;
  SkybandQuery wide;
  wide.band = 6;
  const auto a = engine.Run({.initiator = initiator, .query = narrow, .ripple = RippleParam::Slow()});
  const auto b = engine.Run({.initiator = initiator, .query = wide, .ripple = RippleParam::Slow()});
  EXPECT_LE(a.stats.peers_visited, b.stats.peers_visited);
  EXPECT_LT(a.answer.size(), b.answer.size());
}

// --- Approximate top-k ----------------------------------------------------------

TEST(ApproxTopKTest, EpsilonZeroIsExactAndSlackIsHonored) {
  Net net = MakeNet(128, 3000, 3, 813);
  LinearScorer scorer({-0.4, -0.3, -0.3});
  Engine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  Rng rng(11);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  TopKQuery exact{&scorer, 10, 0.0};
  const TupleVec want = SelectTopK(
      net.all, [&](const Point& p) { return scorer.Score(p); }, exact.k);
  const auto exact_run = SeededTopK(net.overlay, engine, {.initiator = initiator, .query = exact, .ripple = RippleParam::Fast()});
  ASSERT_EQ(exact_run.answer.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(exact_run.answer[i].id, want[i].id);
  }
  // Approximate: every returned score within epsilon of the exact rank.
  for (double eps : {0.02, 0.1}) {
    TopKQuery approx{&scorer, 10, eps};
    const auto run = SeededTopK(net.overlay, engine, {.initiator = initiator, .query = approx, .ripple = RippleParam::Fast()});
    ASSERT_EQ(run.answer.size(), want.size()) << "eps=" << eps;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_GE(scorer.Score(run.answer[i].key) + eps,
                scorer.Score(want[i].key))
          << "eps=" << eps << " rank " << i;
    }
    EXPECT_LE(run.stats.peers_visited, exact_run.stats.peers_visited);
  }
}

TEST(ApproxTopKTest, LargerEpsilonNeverVisitsMore) {
  Net net = MakeNet(256, 4000, 3, 817);
  LinearScorer scorer({-0.5, -0.25, -0.25});
  Engine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  Rng rng(13);
  uint64_t prev = std::numeric_limits<uint64_t>::max();
  for (double eps : {0.0, 0.05, 0.2}) {
    TopKQuery q{&scorer, 10, eps};
    uint64_t visits = 0;
    Rng pick(17);
    for (int trial = 0; trial < 5; ++trial) {
      visits += SeededTopK(net.overlay, engine, {.initiator = net.overlay.RandomPeer(&pick), .query = q, .ripple = RippleParam::Fast()})
                    .stats.peers_visited;
    }
    EXPECT_LE(visits, prev) << "eps=" << eps;
    prev = visits;
  }
}

}  // namespace
}  // namespace ripple
