// Edge-case battery: degenerate data shapes, boundary parameters and
// pathological inputs across modules.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "data/datasets.h"
#include "overlay/midas/midas.h"
#include "queries/skyband.h"
#include "queries/skyline_driver.h"
#include "queries/topk_driver.h"
#include "ripple/engine.h"
#include "store/kd_index.h"
#include "store/local_algos.h"

namespace ripple {
namespace {

// --- Identical / duplicated keys ---------------------------------------------

TupleVec AllSamePoint(size_t n, const Point& p) {
  TupleVec out;
  for (size_t i = 0; i < n; ++i) out.push_back(Tuple{i, p});
  return out;
}

TEST(EdgeCaseTest, KdIndexHandlesIdenticalKeys) {
  const TupleVec ts = AllSamePoint(100, Point{0.5, 0.5});
  KdIndex idx(ts);
  LinearScorer s({-1.0, -1.0});
  const TupleVec top = idx.TopK(s, 10);
  ASSERT_EQ(top.size(), 10u);
  // All scores tie, so any 10 distinct tuples form a valid top-k (the
  // index's id tie-break is best-effort across subtrees, not global).
  std::set<uint64_t> ids;
  for (const Tuple& t : top) {
    EXPECT_DOUBLE_EQ(s.Score(t.key), -1.0);
    EXPECT_TRUE(ids.insert(t.id).second);
  }
}

TEST(EdgeCaseTest, SkylineOfIdenticalKeysKeepsAll) {
  const TupleVec ts = AllSamePoint(50, Point{0.3, 0.7});
  EXPECT_EQ(ComputeSkyline(ts).size(), 50u);  // equal points never dominate
  EXPECT_EQ(ComputeKSkyband(ts, 3).size(), 50u);
}

TEST(EdgeCaseTest, MidasSplitsDegenerateDataViaMidpointFallback) {
  // All tuples at one point: median == zone edge repeatedly; the overlay
  // must fall back to midpoint splits and stay consistent.
  MidasOptions opt;
  opt.dims = 2;
  opt.seed = 5;
  opt.split_rule = MidasSplitRule::kDataMedian;
  MidasOverlay overlay(opt);
  for (const Tuple& t : AllSamePoint(200, Point{0.25, 0.75})) {
    overlay.InsertTuple(t);
  }
  while (overlay.NumPeers() < 64) overlay.Join();
  ASSERT_TRUE(overlay.Validate().ok()) << overlay.Validate().ToString();
  EXPECT_EQ(overlay.TotalTuples(), 200u);
  // The whole dataset sits in one peer's zone; top-k still works.
  LinearScorer s({-1.0, -1.0});
  TopKQuery q{&s, 5};
  Engine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
  Rng rng(7);
  const auto result =
      SeededTopK(overlay, engine, {.initiator = overlay.RandomPeer(&rng), .query = q, .ripple = RippleParam::Fast()});
  EXPECT_EQ(result.answer.size(), 5u);
}

// --- Boundary parameters -------------------------------------------------------

TEST(EdgeCaseTest, TopKWithKEqualsOne) {
  MidasOptions opt;
  opt.dims = 3;
  opt.seed = 11;
  MidasOverlay overlay(opt);
  Rng rng(13);
  const TupleVec ts = data::MakeUniform(500, 3, &rng);
  for (const Tuple& t : ts) overlay.InsertTuple(t);
  while (overlay.NumPeers() < 32) overlay.Join();
  LinearScorer s({-0.2, -0.3, -0.5});
  TopKQuery q{&s, 1};
  Engine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
  const auto result =
      SeededTopK(overlay, engine, {.initiator = overlay.RandomPeer(&rng), .query = q, .ripple = RippleParam::Fast()});
  const TupleVec want = SelectTopK(
      ts, [&](const Point& p) { return s.Score(p); }, 1);
  ASSERT_EQ(result.answer.size(), 1u);
  EXPECT_EQ(result.answer[0].id, want[0].id);
}

TEST(EdgeCaseTest, OneDimensionalDomain) {
  MidasOptions opt;
  opt.dims = 1;
  opt.seed = 17;
  MidasOverlay overlay(opt);
  Rng rng(19);
  TupleVec ts;
  for (uint64_t i = 0; i < 300; ++i) {
    ts.push_back(Tuple{i, Point{rng.UniformDouble()}});
    overlay.InsertTuple(ts.back());
  }
  while (overlay.NumPeers() < 32) overlay.Join();
  ASSERT_TRUE(overlay.Validate().ok());
  // 1-d skyline == the single minimum (no ties in continuous data).
  Engine<MidasOverlay, SkylinePolicy> engine(&overlay, SkylinePolicy{});
  const auto result = SeededSkyline(overlay, engine, {.initiator = overlay.RandomPeer(&rng), .query = SkylineQuery{}, .ripple = RippleParam::Fast()});
  EXPECT_EQ(result.answer, ComputeSkyline(ts));
  EXPECT_EQ(result.answer.size(), 1u);
}

TEST(EdgeCaseTest, MaxDimensionalDomain) {
  MidasOptions opt;
  opt.dims = kMaxDims;
  opt.seed = 23;
  MidasOverlay overlay(opt);
  Rng rng(29);
  const TupleVec ts = data::MakeUniform(200, kMaxDims, &rng);
  for (const Tuple& t : ts) overlay.InsertTuple(t);
  while (overlay.NumPeers() < 16) overlay.Join();
  ASSERT_TRUE(overlay.Validate().ok());
  LinearScorer s(std::vector<double>(kMaxDims, -0.1));
  TopKQuery q{&s, 3};
  Engine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
  const auto result = engine.Run({.initiator = overlay.RandomPeer(&rng), .query = q, .ripple = RippleParam::Slow()});
  const TupleVec want = SelectTopK(
      ts, [&](const Point& p) { return s.Score(p); }, 3);
  ASSERT_EQ(result.answer.size(), 3u);
  EXPECT_EQ(result.answer[0].id, want[0].id);
}

TEST(EdgeCaseTest, SingleTupleAndSinglePeer) {
  MidasOptions opt;
  opt.dims = 2;
  opt.seed = 31;
  MidasOverlay overlay(opt);
  overlay.InsertTuple(Tuple{1, Point{0.5, 0.5}});
  LinearScorer s({-1.0, -1.0});
  TopKQuery q{&s, 10};
  Engine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
  const auto result = engine.Run({.initiator = overlay.LivePeers()[0], .query = q});
  ASSERT_EQ(result.answer.size(), 1u);
  EXPECT_EQ(result.stats.latency_hops, 0u);
  EXPECT_EQ(result.stats.peers_visited, 1u);
}

// --- Dataset boundary shapes ---------------------------------------------------

TEST(EdgeCaseTest, GeneratorsAtMinimumSizes) {
  Rng rng(37);
  for (const char* name : {"uniform", "synth", "correlated",
                           "anticorrelated", "nba", "mirflickr"}) {
    Rng local = rng.Fork();
    const TupleVec one = data::MakeByName(name, 1, 2, &local);
    ASSERT_EQ(one.size(), 1u) << name;
  }
}

TEST(EdgeCaseTest, ZeroKTopKReturnsEmpty) {
  MidasOptions opt;
  opt.dims = 2;
  opt.seed = 41;
  MidasOverlay overlay(opt);
  Rng rng(43);
  for (uint64_t i = 0; i < 100; ++i) {
    overlay.InsertTuple(
        Tuple{i, Point{rng.UniformDouble(), rng.UniformDouble()}});
  }
  while (overlay.NumPeers() < 8) overlay.Join();
  LinearScorer s({-1.0, -1.0});
  TopKQuery q{&s, 0};
  Engine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
  const auto result = engine.Run({.initiator = overlay.RandomPeer(&rng), .query = q});
  EXPECT_TRUE(result.answer.empty());
}

}  // namespace
}  // namespace ripple
