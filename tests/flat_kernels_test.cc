// Property tests for the flat SoA kernels behind the per-peer hot path:
// sweeps dimensionality 2-10 and the three PISA-style score-series shapes
// (increasing, decreasing, random), plus adversarial value shapes (tied
// coordinate sums, repeated keys, zeros and subnormals, tied scores,
// anti-correlated data) at dims 1 through kMaxDims, and asserts the
// branch-light kernels return byte-identical results to the
// definition-level oracle (tests/oracle). Also covers the building blocks
// (FlatStore, BoundedTopK, Arena, ScoreBlock bit-identity) and
// cross-validates both engines end to end on top of the refactored store.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/kernel_counters.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "geom/dominance.h"
#include "geom/scoring.h"
#include "oracle/oracle.h"
#include "overlay/midas/midas.h"
#include "queries/skyline.h"
#include "queries/topk.h"
#include "ripple/engine.h"
#include "sim/async_engine.h"
#include "store/bounded_topk.h"
#include "store/flat_store.h"
#include "store/kd_index.h"
#include "store/local_algos.h"
#include "store/local_store.h"

namespace ripple {
namespace {

// --- workload shapes --------------------------------------------------------

enum class Series { kIncreasing, kDecreasing, kRandom };

const char* Name(Series s) {
  switch (s) {
    case Series::kIncreasing: return "increasing";
    case Series::kDecreasing: return "decreasing";
    case Series::kRandom: return "random";
  }
  return "?";
}

/// Uniform tuples whose rows arrive in the given score order under
/// `scorer` — the adversarial orders for a bounded top-k heap (increasing
/// admits every row; decreasing admits only the first k).
TupleVec ShapedTuples(size_t n, int dims, Series series,
                      const Scorer& scorer, uint64_t seed) {
  Rng rng(seed);
  TupleVec out = data::MakeUniform(n, dims, &rng);
  if (series == Series::kRandom) return out;
  std::stable_sort(out.begin(), out.end(),
                   [&](const Tuple& a, const Tuple& b) {
                     return scorer.Score(a.key) < scorer.Score(b.key);
                   });
  if (series == Series::kDecreasing) std::reverse(out.begin(), out.end());
  return out;
}

LinearScorer PreferenceScorer(int dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(dims);
  for (double& v : w) v = -rng.UniformDouble();
  return LinearScorer(w);
}

bool BitIdentical(const TupleVec& a, const TupleVec& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    if (a[i].key.dims() != b[i].key.dims()) return false;
    for (int d = 0; d < a[i].key.dims(); ++d) {
      const double x = a[i].key[d];
      const double y = b[i].key[d];
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

// --- SoA kernels vs the oracle, dims 2-10 x 3 series ------------------------

TEST(FlatKernelsProperty, SelectTopKMatchesOracle) {
  for (int dims = 2; dims <= kMaxDims; ++dims) {
    const LinearScorer scorer = PreferenceScorer(dims, 100 + dims);
    for (Series series :
         {Series::kIncreasing, Series::kDecreasing, Series::kRandom}) {
      const TupleVec ts =
          ShapedTuples(300, dims, series, scorer, 200 + dims);
      auto score = [&](const Point& p) { return scorer.Score(p); };
      for (size_t k : {size_t{1}, size_t{7}, size_t{50}, size_t{1000}}) {
        const TupleVec got = SelectTopK(ts, score, k);
        const TupleVec want = oracle::TopK(ts, score, k);
        EXPECT_TRUE(BitIdentical(got, want))
            << "dims=" << dims << " series=" << Name(series) << " k=" << k;
      }
    }
  }
}

TEST(FlatKernelsProperty, SkylineKernelsMatchOracle) {
  for (int dims = 2; dims <= kMaxDims; ++dims) {
    const LinearScorer scorer = PreferenceScorer(dims, 300 + dims);
    for (Series series :
         {Series::kIncreasing, Series::kDecreasing, Series::kRandom}) {
      const TupleVec ts =
          ShapedTuples(250, dims, series, scorer, 400 + dims);
      const TupleVec sky = ComputeSkyline(ts);
      EXPECT_TRUE(BitIdentical(sky, oracle::Skyline(ts)))
          << "dims=" << dims << " series=" << Name(series);
      // Merge of two halves' skylines, kernel vs oracle.
      const TupleVec a =
          ComputeSkyline(TupleVec(ts.begin(), ts.begin() + 125));
      const TupleVec b = ComputeSkyline(TupleVec(ts.begin() + 125, ts.end()));
      EXPECT_TRUE(
          BitIdentical(MergeSkylines(a, b), oracle::MergeSkylines(a, b)))
          << "dims=" << dims << " series=" << Name(series);
    }
  }
}

TEST(FlatKernelsProperty, KdIndexScorerPathsMatchOracle) {
  for (int dims = 2; dims <= kMaxDims; ++dims) {
    const LinearScorer scorer = PreferenceScorer(dims, 500 + dims);
    for (Series series :
         {Series::kIncreasing, Series::kDecreasing, Series::kRandom}) {
      const TupleVec ts =
          ShapedTuples(300, dims, series, scorer, 600 + dims);
      KdIndex idx(ts);
      auto score = [&](const Point& p) { return scorer.Score(p); };
      for (size_t k : {size_t{1}, size_t{13}, size_t{64}}) {
        EXPECT_TRUE(
            BitIdentical(idx.TopK(scorer, k), oracle::TopK(ts, score, k)))
            << "dims=" << dims << " series=" << Name(series) << " k=" << k;
      }
      // CollectAtLeast at a tau hitting roughly half the tuples.
      const double tau = scorer.Score(ts[ts.size() / 2].key);
      TupleVec got;
      idx.CollectAtLeast(scorer, tau, &got);
      TupleVec want;
      for (const Tuple& t : ts) {
        if (scorer.Score(t.key) >= tau) want.push_back(t);
      }
      std::sort(got.begin(), got.end(), TupleIdLess());
      std::sort(want.begin(), want.end(), TupleIdLess());
      EXPECT_TRUE(BitIdentical(got, want))
          << "dims=" << dims << " series=" << Name(series);
    }
  }
}

TEST(FlatKernelsProperty, LocalStorePrimitivesMatchOracles) {
  // Both the indexed (>= threshold) and scan (< threshold) store paths
  // against the oracle, on a mixed series shape.
  for (size_t n : {size_t{20}, size_t{400}}) {
    for (int dims : {2, 5, 10}) {
      const LinearScorer scorer = PreferenceScorer(dims, 700 + dims);
      const TupleVec ts =
          ShapedTuples(n, dims, Series::kRandom, scorer, 800 + dims);
      LocalStore store;
      store.AddAll(ts);
      auto score = [&](const Point& p) { return scorer.Score(p); };
      EXPECT_TRUE(BitIdentical(store.TopKAbove(scorer, 9, -1e100),
                               oracle::TopK(ts, score, 9)))
          << "n=" << n << " dims=" << dims;
      EXPECT_TRUE(BitIdentical(store.LocalSkyline(), oracle::Skyline(ts)))
          << "n=" << n << " dims=" << dims;
    }
  }
}

// --- Adversarial value shapes vs the oracle ----------------------------------
// Uniform data never produces the orders kernels break on (PISA sweeps
// shaped series for the same reason). Each shape below targets one
// shortcut: a sum-order pre-sort (tied sums), id tie-breaks (repeated
// keys, tied scores), comparisons at the bottom of the double range
// (zeros, -0.0, subnormals) and large skylines (anti-correlated).

enum class Shape {
  kSumTies,
  kEqualKeys,
  kZerosAndSubnormals,
  kTiedScores,
  kAnticorrelated
};

const char* Name(Shape s) {
  switch (s) {
    case Shape::kSumTies: return "sum-ties";
    case Shape::kEqualKeys: return "equal-keys";
    case Shape::kZerosAndSubnormals: return "zeros-subnormals";
    case Shape::kTiedScores: return "tied-scores";
    case Shape::kAnticorrelated: return "anticorrelated";
  }
  return "?";
}

constexpr Shape kAllShapes[] = {Shape::kSumTies, Shape::kEqualKeys,
                                Shape::kZerosAndSubnormals,
                                Shape::kTiedScores, Shape::kAnticorrelated};

TupleVec AdversarialTuples(Shape shape, size_t n, int dims, uint64_t seed) {
  Rng rng(seed);
  if (shape == Shape::kAnticorrelated) {
    return data::MakeByName("anticorrelated", n, dims, &rng);
  }
  if (shape == Shape::kEqualKeys) {
    // Every key four times, under four distinct ids.
    const TupleVec keys = data::MakeUniform((n + 3) / 4, dims, &rng);
    TupleVec out;
    for (size_t i = 0; i < n; ++i) out.push_back(Tuple{i, keys[i / 4].key});
    return out;
  }
  // The remaining shapes draw every coordinate from a small value set.
  // Sum ties: next to 0.5 or 1, the tiny values vanish from the sum but
  // still decide dominance. Tied scores: a coarse exact grid.
  const double kMin = std::numeric_limits<double>::denorm_min();
  std::vector<double> values;
  switch (shape) {
    case Shape::kSumTies: values = {0.0, 1e-17, 2e-17, 3e-17, 0.5, 1.0}; break;
    case Shape::kZerosAndSubnormals:
      values = {0.0, -0.0, kMin, 2 * kMin, 1e-310,
                std::numeric_limits<double>::min(), 1.0};
      break;
    default: values = {0.0, 0.5, 1.0}; break;
  }
  TupleVec out;
  for (size_t i = 0; i < n; ++i) {
    Point p(dims);
    for (int d = 0; d < dims; ++d) p[d] = values[rng.UniformU64(values.size())];
    out.push_back(Tuple{i, p});
  }
  return out;
}

TEST(FlatKernelsAdversarial, SkylineSkybandAndMergeMatchOracle) {
  for (Shape shape : kAllShapes) {
    for (int dims : {1, 2, 3, kMaxDims}) {
      for (size_t n : {size_t{24}, size_t{160}}) {
        const TupleVec ts =
            AdversarialTuples(shape, n, dims, 1100 + n + dims);
        const std::string where = std::string(Name(shape)) +
                                  " dims=" + std::to_string(dims) +
                                  " n=" + std::to_string(n);
        EXPECT_TRUE(BitIdentical(ComputeSkyline(ts), oracle::Skyline(ts)))
            << where;
        for (size_t k : {size_t{2}, size_t{3}, size_t{5}}) {
          EXPECT_TRUE(
              BitIdentical(ComputeKSkyband(ts, k), oracle::Skyband(ts, k)))
              << where << " k=" << k;
        }
        const TupleVec a =
            ComputeSkyline(TupleVec(ts.begin(), ts.begin() + n / 2));
        const TupleVec b =
            ComputeSkyline(TupleVec(ts.begin() + n / 2, ts.end()));
        EXPECT_TRUE(
            BitIdentical(MergeSkylines(a, b), oracle::MergeSkylines(a, b)))
            << where;
        LocalStore store;
        store.AddAll(ts);
        EXPECT_TRUE(BitIdentical(store.LocalSkyline(), oracle::Skyline(ts)))
            << where;
      }
    }
  }
}

TEST(FlatKernelsAdversarial, TopKPathsMatchOracle) {
  for (Shape shape : kAllShapes) {
    for (int dims : {1, 2, 3, kMaxDims}) {
      for (size_t n : {size_t{24}, size_t{160}}) {
        const TupleVec ts =
            AdversarialTuples(shape, n, dims, 1200 + n + dims);
        // Equal weights turn every tied key sum into a tied score.
        const LinearScorer flat(std::vector<double>(dims, -1.0));
        const LinearScorer skewed = PreferenceScorer(dims, 1300 + dims);
        const KdIndex idx(ts);
        LocalStore store;
        store.AddAll(ts);
        for (const LinearScorer* scorer : {&flat, &skewed}) {
          auto score = [&](const Point& p) { return scorer->Score(p); };
          for (size_t k : {size_t{1}, size_t{7}, size_t{40}}) {
            const TupleVec want = oracle::TopK(ts, score, k);
            const std::string where =
                std::string(Name(shape)) + " dims=" + std::to_string(dims) +
                " n=" + std::to_string(n) + " k=" + std::to_string(k);
            EXPECT_TRUE(BitIdentical(SelectTopK(ts, score, k), want))
                << where;
            EXPECT_TRUE(BitIdentical(idx.TopK(*scorer, k), want)) << where;
            EXPECT_TRUE(
                BitIdentical(store.TopKAbove(*scorer, k, -1e100), want))
                << where;
          }
        }
      }
    }
  }
}

// --- ScoreBlock bit-identity ------------------------------------------------

TEST(ScoreBlockTest, BitIdenticalToScalarScore) {
  for (int dims = 2; dims <= kMaxDims; ++dims) {
    Rng rng(900 + dims);
    const TupleVec ts = data::MakeUniform(257, dims, &rng);
    store::FlatStore flat;
    flat.AppendAll(ts);
    std::vector<const Scorer*> scorers;
    const LinearScorer lin = PreferenceScorer(dims, 910 + dims);
    Point anchor(dims);
    for (int d = 0; d < dims; ++d) anchor[d] = rng.UniformDouble();
    const NearestScorer l1(anchor, Norm::kL1);
    const NearestScorer l2(anchor, Norm::kL2);
    const NearestScorer linf(anchor, Norm::kLInf);
    scorers = {&lin, &l1, &l2, &linf};
    std::vector<double> block(flat.size());
    for (const Scorer* s : scorers) {
      s->ScoreBlock(flat.cols().data(), flat.dims(), flat.size(),
                    block.data());
      for (size_t i = 0; i < flat.size(); ++i) {
        const double want = s->Score(ts[i].key);
        EXPECT_EQ(std::memcmp(&block[i], &want, sizeof(double)), 0)
            << "dims=" << dims << " row=" << i;
      }
    }
  }
}

// --- Dominance kernel -------------------------------------------------------

TEST(DominanceKernelTest, ColumnKernelAgreesWithScalarDominates) {
  for (int dims : {2, 4, 7, 10}) {
    Rng rng(1000 + dims);
    // A 3-skyband keeps rows that dominate each other, so probes see
    // counts above one.
    const TupleVec band =
        ComputeKSkyband(data::MakeUniform(200, dims, &rng), 3);
    store::FlatStore flat;
    flat.AppendAll(band);
    const TupleVec probes = data::MakeUniform(300, dims, &rng);
    for (const Tuple& p : probes) {
      size_t want = 0;
      for (const Tuple& s : band) want += Dominates(s.key, p.key);
      for (size_t limit : {size_t{1}, size_t{3}, band.size() + 1}) {
        EXPECT_EQ(CountDominatorsColumns(flat.cols().data(), dims,
                                         flat.size(), p.key, limit),
                  std::min(want, limit))
            << "dims=" << dims << " limit=" << limit;
      }
    }
  }
}

// --- FlatStore --------------------------------------------------------------

TEST(FlatStoreTest, AppendMaterializeRoundTrip) {
  Rng rng(31);
  const TupleVec ts = data::MakeUniform(50, 3, &rng);
  store::FlatStore flat;
  flat.AppendAll(ts);
  EXPECT_EQ(flat.size(), 50u);
  EXPECT_EQ(flat.dims(), 3);
  EXPECT_TRUE(BitIdentical(flat.Materialize(), ts));
  EXPECT_EQ(flat.TupleAt(7).id, ts[7].id);
}

TEST(FlatStoreTest, ClearKeepsDimsAndReshapesWhenEmpty) {
  store::FlatStore flat;
  flat.Append(Tuple{1, Point{0.1, 0.2}});
  EXPECT_EQ(flat.dims(), 2);
  flat.Clear();
  EXPECT_EQ(flat.dims(), 2);
  EXPECT_TRUE(flat.empty());
  flat.Append(Tuple{2, Point{0.1, 0.2, 0.3}});  // empty store re-shapes
  EXPECT_EQ(flat.dims(), 3);
  EXPECT_EQ(flat.size(), 1u);
}

TEST(FlatStoreTest, ColumnWiseAbsorbEqualsRowWise) {
  Rng rng(37);
  const TupleVec a = data::MakeUniform(20, 4, &rng);
  const TupleVec b = data::MakeUniform(30, 4, &rng);
  store::FlatStore lhs;
  lhs.AppendAll(a);
  store::FlatStore rhs;
  rhs.AppendAll(b);
  lhs.AppendAll(rhs);
  TupleVec want = a;
  want.insert(want.end(), b.begin(), b.end());
  EXPECT_TRUE(BitIdentical(lhs.Materialize(), want));
}

TEST(FlatStoreTest, ExtractIfSplitsStably) {
  store::FlatStore flat;
  for (uint64_t i = 0; i < 10; ++i) {
    flat.Append(Tuple{i, Point{static_cast<double>(i) / 10.0, 0.5}});
  }
  std::vector<uint8_t> mask(10, 0);
  mask[1] = mask[4] = mask[9] = 1;
  const TupleVec moved = flat.ExtractIf(mask);
  ASSERT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved[0].id, 1u);
  EXPECT_EQ(moved[1].id, 4u);
  EXPECT_EQ(moved[2].id, 9u);
  ASSERT_EQ(flat.size(), 7u);
  EXPECT_EQ(flat.id(0), 0u);
  EXPECT_EQ(flat.id(1), 2u);
  EXPECT_EQ(flat.id(6), 8u);
}

TEST(FlatStoreTest, PermutedGathersRows) {
  store::FlatStore flat;
  for (uint64_t i = 0; i < 5; ++i) {
    flat.Append(Tuple{i, Point{static_cast<double>(i), 1.0 - i}});
  }
  const store::FlatStore out = flat.Permuted({4, 0, 2, 1, 3});
  EXPECT_EQ(out.id(0), 4u);
  EXPECT_EQ(out.id(2), 2u);
  EXPECT_DOUBLE_EQ(out.col(0)[0], 4.0);
  EXPECT_DOUBLE_EQ(out.col(1)[1], 1.0);
}

// --- BoundedTopK ------------------------------------------------------------

TEST(BoundedTopKTest, KeepsBestKWithIdTieBreak) {
  store::BoundedTopK q(3);
  EXPECT_FALSE(q.full());
  q.Insert(1.0, 10, 0);
  q.Insert(2.0, 20, 1);
  q.Insert(2.0, 5, 2);  // ties with id 20; smaller id ranks higher
  EXPECT_TRUE(q.full());
  q.Insert(0.5, 99, 3);  // worse than the current worst: rejected
  EXPECT_EQ(q.size(), 3u);
  q.Insert(3.0, 7, 4);  // displaces the worst (score 1.0)
  const auto sorted = q.SortedDescending();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 7u);
  EXPECT_EQ(sorted[1].id, 5u);  // 2.0 tie: id 5 before id 20
  EXPECT_EQ(sorted[2].id, 20u);
}

TEST(BoundedTopKTest, ThresholdTracksKthScore) {
  store::BoundedTopK q(2);
  EXPECT_LT(q.threshold(), -1e300);  // -inf until full
  q.Insert(1.0, 1, 0);
  q.Insert(5.0, 2, 0);
  EXPECT_DOUBLE_EQ(q.threshold(), 1.0);
  q.Insert(3.0, 3, 0);
  EXPECT_DOUBLE_EQ(q.threshold(), 3.0);
  // Equal score, larger id than the root: not admitted.
  EXPECT_FALSE(q.WouldAdmit(3.0, 100));
  // Equal score, smaller id: admitted (deterministic total order).
  EXPECT_TRUE(q.WouldAdmit(3.0, 1));
}

TEST(BoundedTopKTest, CountsHeapPushes) {
  ResetKernelCounters();
  store::BoundedTopK q(2);
  q.Insert(1.0, 1, 0);
  q.Insert(2.0, 2, 0);
  q.Insert(0.1, 3, 0);  // rejected: no push
  q.Insert(3.0, 4, 0);  // replaces root: push
  EXPECT_EQ(LocalKernelCounters().heap_pushes, 3u);
  ResetKernelCounters();
}

// --- Arena ------------------------------------------------------------------

TEST(ArenaTest, RewindReusesMemoryAndBlocksStayStable) {
  Arena arena;
  const Arena::Mark start = arena.GetMark();
  double* a = arena.AllocateArray<double>(100);
  a[99] = 42.0;
  {
    ArenaScope scope(&arena);
    double* b = arena.AllocateArray<double>(1000);
    b[0] = 1.0;
    // Growing into a new block never moves previous allocations.
    double* c = arena.AllocateArray<double>(100000);
    c[99999] = 7.0;
    EXPECT_EQ(a[99], 42.0);
    EXPECT_EQ(b[0], 1.0);
  }
  // After the scope, the next allocation reuses the rewound space.
  double* d = arena.AllocateArray<double>(1000);
  (void)d;
  EXPECT_EQ(a[99], 42.0);
  arena.Rewind(start);
  EXPECT_GT(arena.TotalCapacity(), 0u);
}

TEST(ArenaTest, AllocationsAreAligned) {
  Arena arena;
  for (int i = 0; i < 10; ++i) {
    void* p = arena.Allocate(24, alignof(double));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(double), 0u);
    (void)arena.Allocate(1, 1);  // misalign the bump pointer
  }
}

// --- engines on top of the flat store ---------------------------------------

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
  Rng rng(seed ^ 0xabc);
  net.all = data::MakeUniform(tuples, dims, &rng);
  for (const Tuple& t : net.all) net.overlay.InsertTuple(t);
  while (net.overlay.NumPeers() < peers) net.overlay.Join();
  return net;
}

template <typename Policy, typename Query>
void CrossValidate(const Net& net, const Query& q, RippleParam r,
                   PeerId initiator) {
  Engine<MidasOverlay, Policy> sync_engine(&net.overlay, Policy{});
  AsyncEngine<MidasOverlay, Policy> async_engine(&net.overlay, Policy{});
  const auto sync =
      sync_engine.Run({.initiator = initiator, .query = q, .ripple = r});
  const auto async =
      async_engine.Run({.initiator = initiator, .query = q, .ripple = r});
  ASSERT_EQ(async.answer.size(), sync.answer.size());
  for (size_t i = 0; i < sync.answer.size(); ++i) {
    EXPECT_EQ(async.answer[i].id, sync.answer[i].id);
  }
  EXPECT_EQ(async.stats.messages, sync.stats.messages);
  EXPECT_EQ(async.stats.bytes_on_wire, sync.stats.bytes_on_wire);
}

TEST(FlatKernelsEngineTest, BothEnginesAgreeOnTopKAndSkyline) {
  Net net = MakeNet(64, 900, 3, 881);
  LinearScorer scorer({-0.5, -0.3, -0.2});
  TopKQuery q{&scorer, 10};
  Rng rng(5);
  for (const RippleParam r :
       {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    CrossValidate<TopKPolicy>(net, q, r, net.overlay.RandomPeer(&rng));
    CrossValidate<SkylinePolicy>(net, SkylineQuery{}, r,
                                 net.overlay.RandomPeer(&rng));
  }
}

TEST(FlatKernelsEngineTest, RunFlushesWorkCountersIntoRegistry) {
  Net net = MakeNet(32, 600, 2, 883);
  LinearScorer scorer({-0.6, -0.4});
  TopKQuery q{&scorer, 5};
  Engine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  obs::Registry::EnableGlobal(true);
  const uint64_t before =
      obs::Registry::Global().GetCounter("kernel.tuples_scanned").value();
  (void)engine.Run({.initiator = 0, .query = q, .ripple = RippleParam::Fast()});
  const uint64_t after =
      obs::Registry::Global().GetCounter("kernel.tuples_scanned").value();
  obs::Registry::EnableGlobal(false);
  EXPECT_GT(after, before);
  // Counters were reset by the flush — the thread-local view is clean.
  EXPECT_EQ(LocalKernelCounters().tuples_scanned, 0u);
}

}  // namespace
}  // namespace ripple
