// Unit tests for the materialized abstract functions, one algorithm at a
// time (paper Algorithms 4-9: top-k; 10-15: skyline; 16-21:
// diversification), independent of any overlay.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/datasets.h"
#include "obs/profile.h"
#include "overlay/midas/midas.h"
#include "queries/diversify.h"
#include "queries/skyband.h"
#include "queries/skyline.h"
#include "queries/topk.h"
#include "ripple/engine.h"
#include "store/local_algos.h"
#include "store/local_store.h"

namespace ripple {
namespace {

LocalStore StoreWith(std::initializer_list<Tuple> ts) {
  LocalStore s;
  for (const Tuple& t : ts) s.Add(t);
  return s;
}

// --- Top-k: Algorithms 4-9 ----------------------------------------------------

TEST(TopKAlgorithmsTest, Alg4ComputeLocalStateFillsToK) {
  // Line 1: tuples at/above tau; lines 2-3: best of the rest when the
  // global goal is unmet.
  const LocalStore store = StoreWith({Tuple{1, Point{0.9}},   // score -0.9
                                      Tuple{2, Point{0.5}},   // score -0.5
                                      Tuple{3, Point{0.1}}}); // score -0.1
  LinearScorer s({-1.0});
  TopKPolicy policy;
  // Global already has 1 tuple above -0.3; k = 3: one local above tau
  // (-0.1), plus one more of the rest (3 - 1 - 1 = 1 -> the -0.5 tuple).
  const TopKState l = policy.ComputeLocalState(
      store, TopKQuery{&s, 3}, TopKState{1, -0.3});
  EXPECT_EQ(l.m, 2u);
  EXPECT_DOUBLE_EQ(l.tau, -0.5);
}

TEST(TopKAlgorithmsTest, Alg4NoFillWhenGlobalGoalMet) {
  const LocalStore store = StoreWith({Tuple{1, Point{0.9}},
                                      Tuple{2, Point{0.05}}});
  LinearScorer s({-1.0});
  TopKPolicy policy;
  const TopKState l = policy.ComputeLocalState(
      store, TopKQuery{&s, 2}, TopKState{2, -0.3});
  // Only the tuple above tau counts; no filling.
  EXPECT_EQ(l.m, 1u);
  EXPECT_DOUBLE_EQ(l.tau, -0.05);
}

TEST(TopKAlgorithmsTest, Alg5And7MergeTightensWhenWitnessed) {
  TopKPolicy policy;
  const TopKQuery q{nullptr, 3};
  // Local alone witnesses k=3 above -0.2: merged tau must rise to -0.2.
  const TopKState merged = policy.ComputeGlobalState(
      q, TopKState{3, -0.5}, TopKState{3, -0.2});
  EXPECT_GE(merged.m, 3u);
  EXPECT_DOUBLE_EQ(merged.tau, -0.2);
  // Neither side alone suffices: counts add at the lower threshold.
  const TopKState weak = policy.ComputeGlobalState(
      q, TopKState{2, -0.5}, TopKState{2, -0.2});
  EXPECT_EQ(weak.m, 4u);
  EXPECT_DOUBLE_EQ(weak.tau, -0.5);
}

TEST(TopKAlgorithmsTest, Alg6LocalAnswerUsesLocalThreshold) {
  const LocalStore store = StoreWith({Tuple{1, Point{0.9}},
                                      Tuple{2, Point{0.5}},
                                      Tuple{3, Point{0.1}}});
  LinearScorer s({-1.0});
  TopKPolicy policy;
  const TupleVec a = policy.ComputeLocalAnswer(store, TopKQuery{&s, 2},
                                               TopKState{2, -0.5});
  ASSERT_EQ(a.size(), 2u);  // -0.1 and the -0.5 witness, not -0.9
  EXPECT_EQ(a[0].id, 2u);
  EXPECT_EQ(a[1].id, 3u);
}

TEST(TopKAlgorithmsTest, Alg8RelevanceRules) {
  TopKPolicy policy;
  LinearScorer s({-1.0});
  const TopKQuery q{&s, 5};
  const Rect good(Point{0.0}, Point{0.2});  // f+ = 0
  const Rect bad(Point{0.6}, Point{0.9});   // f+ = -0.6
  // m < k: everything is relevant.
  EXPECT_TRUE(policy.IsLinkRelevant(q, TopKState{2, -0.1}, bad));
  // m >= k: only areas whose f+ beats tau.
  EXPECT_TRUE(policy.IsLinkRelevant(q, TopKState{5, -0.1}, good));
  EXPECT_FALSE(policy.IsLinkRelevant(q, TopKState{5, -0.1}, bad));
  // Boundary: f+ == tau stays relevant (ties must not be lost).
  EXPECT_TRUE(policy.IsLinkRelevant(q, TopKState{5, -0.6}, bad));
}

TEST(TopKAlgorithmsTest, Alg9PriorityOrdersByUpperBound) {
  TopKPolicy policy;
  LinearScorer s({-1.0});
  const TopKQuery q{&s, 5};
  const Rect near_origin(Point{0.0}, Point{0.5});
  const Rect far(Point{0.5}, Point{1.0});
  EXPECT_GT(policy.LinkPriority(q, near_origin), policy.LinkPriority(q, far));
}

// --- Skyline: Algorithms 10-15 --------------------------------------------------

TEST(SkylineAlgorithmsTest, Alg10LocalStateKeepsOnlySurvivors) {
  const LocalStore store = StoreWith({Tuple{1, Point{0.2, 0.8}},
                                      Tuple{2, Point{0.8, 0.2}},
                                      Tuple{3, Point{0.9, 0.9}}});
  SkylinePolicy policy;
  // Global state dominates tuple 2 but not tuple 1.
  BandState g;
  g.tuples = {Tuple{100, Point{0.5, 0.1}}};
  const BandState l =
      policy.ComputeLocalState(store, SkylineQuery{}, g);
  ASSERT_EQ(l.tuples.size(), 1u);
  EXPECT_EQ(l.tuples[0].id, 1u);  // 2 dominated by 100; 3 dominated locally
}

TEST(SkylineAlgorithmsTest, Alg11GlobalStateIsMergedSkyline) {
  SkylinePolicy policy;
  BandState g;
  g.tuples = {Tuple{1, Point{0.5, 0.5}}};
  BandState l;
  l.tuples = {Tuple{2, Point{0.2, 0.9}}, Tuple{3, Point{0.6, 0.6}}};
  const BandState merged =
      policy.ComputeGlobalState(SkylineQuery{}, g, l);
  ASSERT_EQ(merged.tuples.size(), 2u);  // 3 dominated by 1
  EXPECT_EQ(merged.tuples[0].id, 1u);
  EXPECT_EQ(merged.tuples[1].id, 2u);
  EXPECT_FALSE(merged.dominators.empty());
}

TEST(SkylineAlgorithmsTest, Alg14RegionPrunedOnlyWhenFullyDominated) {
  SkylinePolicy policy;
  BandState g;
  g.tuples = {Tuple{1, Point{0.3, 0.3}}};
  g.dominators = g.tuples;
  const Rect dominated(Point{0.5, 0.5}, Point{0.9, 0.9});
  const Rect partial(Point{0.2, 0.5}, Point{0.9, 0.9});  // corner beats s_x
  EXPECT_FALSE(policy.IsLinkRelevant(SkylineQuery{}, g, dominated));
  EXPECT_TRUE(policy.IsLinkRelevant(SkylineQuery{}, g, partial));
}

TEST(SkylineAlgorithmsTest, Alg15PrefersRegionsNearOrigin) {
  SkylinePolicy policy;
  const Rect near_origin(Point{0.0, 0.0}, Point{0.4, 0.4});
  const Rect far(Point{0.6, 0.6}, Point{1.0, 1.0});
  EXPECT_GT(policy.LinkPriority(SkylineQuery{}, near_origin),
            policy.LinkPriority(SkylineQuery{}, far));
}

TEST(SkylineAlgorithmsTest, Alg12LocalAnswerIsTheStoredTuplesAfterAMerge) {
  // Stored: 2, 5, 7 and 8; 8 is dominated by 7. The remote state holds 1,
  // which dominates 7 and 8, and 3 and 9, which dominate nothing stored.
  const LocalStore store = StoreWith({Tuple{8, Point{0.6, 0.6}},
                                      Tuple{5, Point{0.1, 0.9}},
                                      Tuple{7, Point{0.5, 0.5}},
                                      Tuple{2, Point{0.9, 0.1}}});
  const BandState remote{{Tuple{1, Point{0.4, 0.4}},
                          Tuple{3, Point{0.95, 0.05}},
                          Tuple{9, Point{0.05, 0.95}}},
                         {}};
  auto ids = [](const TupleVec& ts) {
    std::vector<uint64_t> out;
    for (const Tuple& t : ts) out.push_back(t.id);
    return out;
  };
  {
    const SkylinePolicy policy;
    const SkylineQuery q;
    BandState l = policy.ComputeLocalState(store, q, BandState{});
    policy.MergeLocalStates(q, &l, {remote});
    ASSERT_EQ(ids(l.tuples), (std::vector<uint64_t>{1, 2, 3, 5, 9}));
    EXPECT_EQ(ids(policy.ComputeLocalAnswer(store, q, l)),
              (std::vector<uint64_t>{2, 5}));
  }
  {
    // In the 2-skyband 7 survives (one dominator) and 8 does not (two).
    const SkybandPolicy policy;
    const SkybandQuery q{2, Norm::kL2};
    BandState l = policy.ComputeLocalState(store, q, BandState{});
    policy.MergeLocalStates(q, &l, {remote});
    ASSERT_EQ(ids(l.tuples), (std::vector<uint64_t>{1, 2, 3, 5, 7, 9}));
    const TupleVec answer = policy.ComputeLocalAnswer(store, q, l);
    ASSERT_EQ(ids(answer), (std::vector<uint64_t>{2, 5, 7}));
    EXPECT_EQ(answer[2], (Tuple{7, Point{0.5, 0.5}}));
  }
}

// --- Diversification: Algorithms 16-21 -------------------------------------------

TEST(DivAlgorithmsTest, Alg16LocalStateTakesBetterPhi) {
  const LocalStore store = StoreWith({Tuple{1, Point{0.5, 0.5}}});
  DivPolicy policy;
  const DivQuery q =
      MakeDivQuery(DiversifyObjective{Point{0.5, 0.5}, 1.0, Norm::kL1}, {});
  // Local best phi = lambda * dr = 0 (the tuple sits on the query point).
  const DivState improved =
      policy.ComputeLocalState(store, q, DivState{0.7});
  EXPECT_DOUBLE_EQ(improved.tau, 0.0);
  // Threshold already better than anything local: keep it.
  const DivState kept = policy.ComputeLocalState(store, q, DivState{-1.0});
  EXPECT_DOUBLE_EQ(kept.tau, -1.0);
}

TEST(DivAlgorithmsTest, Alg18AnswerOnlyWhenAttainingThreshold) {
  const LocalStore store = StoreWith({Tuple{1, Point{0.4, 0.6}}});
  DivPolicy policy;
  const DivQuery q =
      MakeDivQuery(DiversifyObjective{Point{0.5, 0.5}, 1.0, Norm::kL1}, {});
  const double phi = q.Phi(Point{0.4, 0.6});
  EXPECT_EQ(policy.ComputeLocalAnswer(store, q, DivState{phi}).size(), 1u);
  EXPECT_TRUE(
      policy.ComputeLocalAnswer(store, q, DivState{phi - 0.01}).empty());
}

TEST(DivAlgorithmsTest, Alg19MergeTakesMinimum) {
  DivPolicy policy;
  const DivQuery q =
      MakeDivQuery(DiversifyObjective{Point{0.5, 0.5}, 0.5, Norm::kL1}, {});
  DivState mine{0.4};
  policy.MergeLocalStates(q, &mine, {DivState{0.7}, DivState{0.2}});
  EXPECT_DOUBLE_EQ(mine.tau, 0.2);
}

TEST(DivAlgorithmsTest, Alg20RelevantOnlyBelowThreshold) {
  DivPolicy policy;
  const DivQuery q =
      MakeDivQuery(DiversifyObjective{Point{0.0, 0.0}, 1.0, Norm::kL1}, {});
  const Rect near_q(Point{0.0, 0.0}, Point{0.2, 0.2});   // phi- = 0
  const Rect far(Point{0.6, 0.6}, Point{1.0, 1.0});      // phi- = 1.2
  EXPECT_TRUE(policy.IsLinkRelevant(q, DivState{0.5}, near_q));
  EXPECT_FALSE(policy.IsLinkRelevant(q, DivState{0.5}, far));
  // Strict: phi- == tau is prunable (nothing strictly better inside).
  EXPECT_FALSE(policy.IsLinkRelevant(q, DivState{1.2}, far));
}

TEST(DivAlgorithmsTest, Alg21PriorityPrefersLowPhiBound) {
  DivPolicy policy;
  const DivQuery q =
      MakeDivQuery(DiversifyObjective{Point{0.0, 0.0}, 1.0, Norm::kL1}, {});
  const Rect near_q(Point{0.0, 0.0}, Point{0.2, 0.2});
  const Rect far(Point{0.6, 0.6}, Point{1.0, 1.0});
  EXPECT_GT(policy.LinkPriority(q, near_q), policy.LinkPriority(q, far));
}

// --- Engine invariant: each peer processes a query at most once -----------------

TEST(EngineInvariantTest, RestrictionAreasVisitEachPeerOnce) {
  MidasOptions opt;
  opt.dims = 3;
  opt.seed = 77;
  MidasOverlay overlay(opt);
  Rng rng(79);
  const TupleVec ts = data::MakeUniform(1500, 3, &rng);
  for (const Tuple& t : ts) overlay.InsertTuple(t);
  while (overlay.NumPeers() < 200) overlay.Join();

  Engine<MidasOverlay, SkylinePolicy> engine(&overlay, SkylinePolicy{});
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    obs::Profiler visits;
    engine.SetSink(obs::Sink(nullptr, &visits, nullptr));
    const auto result = engine.Run({.initiator = overlay.RandomPeer(&rng), .query = SkylineQuery{}, .ripple = r});
    EXPECT_EQ(visits.Totals().spans, result.stats.peers_visited) << r;
    for (size_t i = 0; i < visits.peer_count(); ++i) {
      EXPECT_LE(visits.load(static_cast<uint32_t>(i)).spans, 1u)
          << "peer " << i << " r=" << r;
    }
  }
}

}  // namespace
}  // namespace ripple
