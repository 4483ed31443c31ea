// End-to-end integration: combined query mixes over one shared deployment,
// under churn, across engines (recursive and asynchronous), verifying
// every answer against centralized oracles.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/datasets.h"
#include "overlay/midas/midas.h"
#include "queries/diversify_driver.h"
#include "queries/range.h"
#include "queries/skyband.h"
#include "queries/skyline_driver.h"
#include "queries/topk_driver.h"
#include "ripple/engine.h"
#include "sim/async_engine.h"

namespace ripple {
namespace {

struct Deployment {
  MidasOverlay overlay;
  TupleVec all;
};

Deployment Deploy(size_t peers, const TupleVec& tuples, int dims,
                  uint64_t seed) {
  MidasOptions opt;
  opt.dims = dims;
  opt.seed = seed;
  opt.split_rule = MidasSplitRule::kDataMedian;
  opt.border_pattern_links = true;
  Deployment d{MidasOverlay(opt), tuples};
  for (const Tuple& t : tuples) d.overlay.InsertTuple(t);
  while (d.overlay.NumPeers() < peers) d.overlay.Join();
  return d;
}

void ExpectSameIds(TupleVec got, TupleVec want, const char* what) {
  std::sort(got.begin(), got.end(), TupleIdLess());
  std::sort(want.begin(), want.end(), TupleIdLess());
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " position " << i;
  }
}

TEST(IntegrationTest, MixedQueriesOverOneDeployment) {
  Rng data_rng(901);
  const TupleVec tuples = data::MakeByName("synth", 3000, 4, &data_rng);
  Deployment d = Deploy(128, tuples, 4, 903);
  Rng rng(7);
  const PeerId me = d.overlay.RandomPeer(&rng);

  // Top-k.
  LinearScorer scorer({-0.4, -0.2, -0.2, -0.2});
  TopKQuery topk{&scorer, 10};
  Engine<MidasOverlay, TopKPolicy> topk_engine(&d.overlay, TopKPolicy{});
  ExpectSameIds(
      SeededTopK(d.overlay, topk_engine, {.initiator = me, .query = topk, .ripple = RippleParam::Fast()}).answer,
      SelectTopK(tuples, [&](const Point& p) { return scorer.Score(p); },
                 topk.k),
      "topk");

  // Skyline.
  Engine<MidasOverlay, SkylinePolicy> sky_engine(&d.overlay,
                                                 SkylinePolicy{});
  ExpectSameIds(
      SeededSkyline(d.overlay, sky_engine, {.initiator = me, .query = SkylineQuery{}, .ripple = RippleParam::Fast()}).answer,
      ComputeSkyline(tuples), "skyline");

  // 3-skyband.
  Engine<MidasOverlay, SkybandPolicy> band_engine(&d.overlay,
                                                  SkybandPolicy{});
  SkybandQuery band;
  band.band = 3;
  ExpectSameIds(band_engine.Run({.initiator = me, .query = band}).answer,
                ComputeKSkyband(tuples, 3), "skyband");

  // Range.
  RangeQuery range{tuples[17].key, 0.15, Norm::kL2};
  Engine<MidasOverlay, RangePolicy> range_engine(&d.overlay, RangePolicy{});
  TupleVec range_want;
  for (const Tuple& t : tuples) {
    if (range.Matches(t.key)) range_want.push_back(t);
  }
  ExpectSameIds(range_engine.Run({.initiator = me, .query = range, .ripple = RippleParam::Slow()}).answer, range_want,
                "range");

  // Diversification (forced to the centralized trajectory).
  DiversifyObjective obj{tuples[3].key, 0.5, Norm::kL1};
  RippleDivService<MidasOverlay> measured(&d.overlay, {.initiator = me, .ripple = RippleParam::Fast()});
  CentralizedDivService reference(&tuples);
  ForcedResultService forced(&measured, &reference);
  CentralizedDivService oracle(&tuples);
  DiversifyOptions options;
  options.k = 8;
  options.service_init = true;
  const auto got = Diversify(&forced, obj, {}, options);
  const auto want = Diversify(&oracle, obj, {}, options);
  ExpectSameIds(got.set, want.set, "diversify");
  EXPECT_DOUBLE_EQ(got.objective, want.objective);
}

TEST(IntegrationTest, AllQueriesSurviveFullChurnCycle) {
  Rng data_rng(907);
  const TupleVec tuples = data::MakeUniform(2000, 3, &data_rng);
  Deployment d = Deploy(128, tuples, 3, 909);
  LinearScorer scorer({-0.5, -0.3, -0.2});
  TopKQuery topk{&scorer, 10};
  const TupleVec want_topk = SelectTopK(
      tuples, [&](const Point& p) { return scorer.Score(p); }, topk.k);
  const TupleVec want_sky = ComputeSkyline(tuples);
  const TupleVec want_band = ComputeKSkyband(tuples, 2);

  Rng churn(11);
  // Shrink, grow, shrink — verifying after each phase.
  for (const size_t target : {32u, 200u, 64u}) {
    while (d.overlay.NumPeers() > target) {
      ASSERT_TRUE(d.overlay.LeaveRandom(&churn).ok());
    }
    while (d.overlay.NumPeers() < target) d.overlay.Join();
    ASSERT_TRUE(d.overlay.Validate().ok());
    const PeerId me = d.overlay.RandomPeer(&churn);
    Engine<MidasOverlay, TopKPolicy> te(&d.overlay, TopKPolicy{});
    ExpectSameIds(SeededTopK(d.overlay, te, {.initiator = me, .query = topk, .ripple = RippleParam::Fast()}).answer, want_topk,
                  "churn topk");
    Engine<MidasOverlay, SkylinePolicy> se(&d.overlay, SkylinePolicy{});
    ExpectSameIds(
        SeededSkyline(d.overlay, se, {.initiator = me, .query = SkylineQuery{}, .ripple = RippleParam::Slow()}).answer,
        want_sky, "churn skyline");
    Engine<MidasOverlay, SkybandPolicy> be(&d.overlay, SkybandPolicy{});
    SkybandQuery band;
    band.band = 2;
    ExpectSameIds(be.Run({.initiator = me, .query = band}).answer, want_band, "churn skyband");
  }
}

TEST(IntegrationTest, AsyncEngineAgreesOnSkybandAndRange) {
  Rng data_rng(911);
  const TupleVec tuples = data::MakeUniform(1200, 3, &data_rng);
  Deployment d = Deploy(96, tuples, 3, 913);
  Rng rng(13);
  const PeerId me = d.overlay.RandomPeer(&rng);

  Engine<MidasOverlay, SkybandPolicy> sync_band(&d.overlay, SkybandPolicy{});
  AsyncEngine<MidasOverlay, SkybandPolicy> async_band(&d.overlay,
                                                      SkybandPolicy{});
  SkybandQuery band;
  band.band = 2;
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Slow()}) {
    const auto s = sync_band.Run({.initiator = me, .query = band, .ripple = r});
    const auto a = async_band.Run({.initiator = me, .query = band, .ripple = r});
    ExpectSameIds(a.answer, s.answer, "async skyband");
    EXPECT_EQ(a.stats.peers_visited, s.stats.peers_visited);
    EXPECT_EQ(a.stats.messages, s.stats.messages);
  }

  Engine<MidasOverlay, RangePolicy> sync_range(&d.overlay, RangePolicy{});
  AsyncEngine<MidasOverlay, RangePolicy> async_range(&d.overlay,
                                                     RangePolicy{});
  RangeQuery range{Point{0.4, 0.5, 0.6}, 0.2, Norm::kL1};
  const auto s = sync_range.Run({.initiator = me, .query = range, .ripple = RippleParam::Hops(2)});
  const auto a = async_range.Run({.initiator = me, .query = range, .ripple = RippleParam::Hops(2)});
  ExpectSameIds(a.answer, s.answer, "async range");
  EXPECT_EQ(a.stats.tuples_shipped, s.stats.tuples_shipped);
}

}  // namespace
}  // namespace ripple
