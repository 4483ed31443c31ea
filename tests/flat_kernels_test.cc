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
#include <bit>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/kernel_counters.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "geom/dominance.h"
#include "geom/scoring.h"
#include "oracle/oracle.h"
#include "overlay/midas/midas.h"
#include "queries/range.h"
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
          BitIdentical(MergeBands(a, b, 1), oracle::MergeBands(a, b, 1)))
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
            BitIdentical(MergeBands(a, b, 1), oracle::MergeBands(a, b, 1)))
            << where;
        LocalStore store;
        store.AddAll(ts);
        EXPECT_TRUE(BitIdentical(store.LocalSkyline(), oracle::Skyline(ts)))
            << where;
      }
    }
  }
}

TEST(FlatKernelsAdversarial, SkybandOfRepeatedIdsInAnyOrderMatchesOracle) {
  // Merged states repeat tuples and arrive in any order: ComputeKSkyband
  // keeps each id once and returns the band in id order.
  for (Shape shape : kAllShapes) {
    for (int dims : {1, 2, 4, kMaxDims}) {
      const TupleVec ts = AdversarialTuples(shape, 120, dims, 1600 + dims);
      TupleVec input = ts;
      for (size_t i = 0; i < ts.size(); i += 3) input.push_back(ts[i]);
      std::reverse(input.begin(), input.end());
      std::rotate(input.begin(), input.begin() + input.size() / 3,
                  input.end());
      const std::string where =
          std::string(Name(shape)) + " dims=" + std::to_string(dims);
      for (size_t k : {size_t{1}, size_t{2}, size_t{3}}) {
        const TupleVec got = ComputeKSkyband(input, k);
        EXPECT_TRUE(BitIdentical(got, oracle::Skyband(input, k)))
            << where << " k=" << k;
        EXPECT_TRUE(BitIdentical(got, oracle::Skyband(ts, k)))
            << where << " k=" << k;
      }
    }
  }
}

/// oracle::Skyband(store ∪ state, k) restricted to the store's rows (and
/// to `box`, when given: only boxed rows are counted and returned).
TupleVec StoreBandOracle(const TupleVec& store, const TupleVec& state,
                         size_t k, const Rect* box = nullptr) {
  TupleVec all;
  std::vector<uint64_t> ids;
  for (const Tuple& t : store) {
    if (box != nullptr && !box->Contains(t.key)) continue;
    all.push_back(t);
    ids.push_back(t.id);
  }
  std::sort(ids.begin(), ids.end());
  all.insert(all.end(), state.begin(), state.end());
  TupleVec out;
  for (const Tuple& t : oracle::Skyband(all, k)) {
    if (std::binary_search(ids.begin(), ids.end(), t.id)) out.push_back(t);
  }
  return out;
}

TEST(FlatKernelsAdversarial, StoreBandKernelMatchesOracle) {
  // The store-side band kernel on both store paths (flat below
  // kIndexThreshold, k-d leaves above), against states that are empty,
  // disjoint from the store, or share tuples with it.
  constexpr size_t kStateSource = 120;
  for (Shape shape : kAllShapes) {
    for (int dims : {1, 2, 4, kMaxDims}) {
      for (size_t n : {LocalStore::kIndexThreshold - 8,
                       LocalStore::kIndexThreshold, size_t{160}}) {
        const TupleVec ts = AdversarialTuples(shape, n + kStateSource, dims,
                                              1400 + n + dims);
        const TupleVec mine(ts.begin(), ts.begin() + n);
        const TupleVec others(ts.begin() + n, ts.end());
        TupleVec shared_source = others;
        shared_source.insert(shared_source.end(), mine.begin(),
                             mine.begin() + n / 3);
        LocalStore store;
        store.AddAll(mine);
        Point box_hi(dims);
        box_hi.Fill(0.6);
        const Rect box(Point(dims), box_hi);
        for (size_t k : {size_t{1}, size_t{2}, size_t{3}}) {
          const TupleVec states[] = {TupleVec{}, oracle::Skyband(others, k),
                                     oracle::Skyband(shared_source, k)};
          for (size_t s = 0; s < 3; ++s) {
            const std::string where =
                std::string(Name(shape)) + " dims=" + std::to_string(dims) +
                " n=" + std::to_string(n) + " k=" + std::to_string(k) +
                " state=" + std::to_string(s);
            EXPECT_TRUE(BitIdentical(store.Skyband(states[s], k),
                                     StoreBandOracle(mine, states[s], k)))
                << where;
            EXPECT_TRUE(BitIdentical(store.Skyband(states[s], k, &box),
                                     StoreBandOracle(mine, states[s], k, &box)))
                << where << " boxed";
          }
        }
      }
    }
  }
}

TEST(FlatKernelsAdversarial, MergeSkylinesToleratesUnsortedAndDuplicateIds) {
  for (Shape shape : kAllShapes) {
    for (int dims : {1, 2, 4, kMaxDims}) {
      const TupleVec ts = AdversarialTuples(shape, 160, dims, 1500 + dims);
      const TupleVec a = ComputeSkyline(TupleVec(ts.begin(), ts.begin() + 90));
      const TupleVec b = ComputeSkyline(TupleVec(ts.begin() + 60, ts.end()));
      const std::string where =
          std::string(Name(shape)) + " dims=" + std::to_string(dims);
      // Honest inputs sharing tuples, in id order and shuffled.
      const TupleVec want = oracle::MergeBands(a, b, 1);
      EXPECT_TRUE(BitIdentical(MergeBands(a, b, 1), want)) << where;
      TupleVec ra = a, rb = b;
      std::reverse(ra.begin(), ra.end());
      std::rotate(rb.begin(), rb.begin() + rb.size() / 2, rb.end());
      EXPECT_TRUE(BitIdentical(MergeBands(ra, rb, 1), want)) << where;
      EXPECT_TRUE(BitIdentical(MergeBands(ra, TupleVec{}, 1), a)) << where;
      EXPECT_TRUE(BitIdentical(MergeBands(TupleVec{}, rb, 1), b)) << where;
      // Repeated ids, with equal and with different keys: no crash, and
      // the output stays in id order.
      TupleVec da = a, db = b;
      da.insert(da.end(), a.begin(), a.end());
      for (const Tuple& t : a) db.push_back(Tuple{t.id, ts[t.id % 7].key});
      const TupleVec got = MergeBands(da, db, 1);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), TupleIdLess()))
          << where;
    }
  }
}

TEST(FlatKernelsAdversarial, MergeBandsMatchesOracle) {
  // Bands of overlapping and of disjoint slices, merged both ways round,
  // in id order and shuffled: exactly the band of the union, a shared
  // tuple counted once.
  for (Shape shape : kAllShapes) {
    for (int dims : {1, 2, 4, kMaxDims}) {
      const TupleVec ts = AdversarialTuples(shape, 180, dims, 1700 + dims);
      for (size_t k = 1; k <= 4; ++k) {
        const TupleVec lo = ComputeKSkyband(
            TupleVec(ts.begin(), ts.begin() + 100), k);
        const TupleVec hi =
            ComputeKSkyband(TupleVec(ts.begin() + 70, ts.end()), k);
        const TupleVec head =
            ComputeKSkyband(TupleVec(ts.begin(), ts.begin() + 70), k);
        const std::pair<const TupleVec*, const TupleVec*> pairs[] = {
            {&lo, &hi}, {&hi, &lo}, {&head, &hi}, {&lo, &head}};
        for (const auto& [a, b] : pairs) {
          const std::string where = std::string(Name(shape)) +
                                    " dims=" + std::to_string(dims) +
                                    " k=" + std::to_string(k) +
                                    " |a|=" + std::to_string(a->size()) +
                                    " |b|=" + std::to_string(b->size());
          const TupleVec want = oracle::MergeBands(*a, *b, k);
          EXPECT_TRUE(BitIdentical(MergeBands(*a, *b, k), want)) << where;
          TupleVec ra = *a, rb = *b;
          std::reverse(ra.begin(), ra.end());
          std::rotate(rb.begin(), rb.begin() + rb.size() / 3, rb.end());
          EXPECT_TRUE(BitIdentical(MergeBands(ra, rb, k), want)) << where;
        }
        EXPECT_TRUE(BitIdentical(MergeBands(lo, TupleVec{}, k), lo));
        EXPECT_TRUE(BitIdentical(MergeBands(TupleVec{}, hi, k), hi));
        EXPECT_TRUE(MergeBands(lo, hi, 0).empty());
      }
    }
  }
}

TEST(FlatKernelsAdversarial, MergeBandsSurvivesHostileInputs) {
  // Repeated ids, different keys under one id, and inputs that are not
  // bands of themselves: no crash, and the output stays in id order.
  for (Shape shape : kAllShapes) {
    for (int dims : {1, 2, 4, kMaxDims}) {
      const TupleVec ts = AdversarialTuples(shape, 120, dims, 1800 + dims);
      const TupleVec raw_a(ts.begin(), ts.begin() + 70);
      const TupleVec raw_b(ts.begin() + 40, ts.end());
      TupleVec repeated = raw_a;
      repeated.insert(repeated.end(), raw_a.begin(), raw_a.end());
      TupleVec rekeyed = raw_b;
      for (const Tuple& t : raw_a) {
        rekeyed.push_back(Tuple{t.id, ts[(t.id * 5) % ts.size()].key});
      }
      std::reverse(rekeyed.begin(), rekeyed.end());
      for (size_t k = 1; k <= 4; ++k) {
        const std::string where = std::string(Name(shape)) +
                                  " dims=" + std::to_string(dims) +
                                  " k=" + std::to_string(k);
        for (const TupleVec& got :
             {MergeBands(raw_a, raw_b, k), MergeBands(repeated, rekeyed, k),
              MergeBands(rekeyed, repeated, k)}) {
          EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), TupleIdLess()))
              << where;
        }
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

/// The lowest Scorer::Score over `tuples`, folded best-first with
/// std::min as the materializing top-k state did, and its bits.
uint64_t LowestScoreBits(const Scorer& scorer, const TupleVec& tuples) {
  double low = std::numeric_limits<double>::infinity();
  for (const Tuple& t : tuples) low = std::min(low, scorer.Score(t.key));
  return std::bit_cast<uint64_t>(low);
}

TEST(FlatKernelsAdversarial, TopKCountsMatchTheMaterializedSelections) {
  for (Shape shape : kAllShapes) {
    for (int dims : {1, 2, 3, kMaxDims}) {
      // Below and above LocalStore::kIndexThreshold: the flat scan and
      // KdIndex::SelectTopK.
      for (size_t n : {size_t{24}, size_t{160}}) {
        const TupleVec ts =
            AdversarialTuples(shape, n, dims, 1400 + n + dims);
        const LinearScorer flat(std::vector<double>(dims, -1.0));
        const LinearScorer skewed = PreferenceScorer(dims, 1500 + dims);
        const NearestScorer nearest(ts[n / 2].key, Norm::kL2);
        LocalStore store;
        store.AddAll(ts);
        for (const Scorer* scorer :
             std::initializer_list<const Scorer*>{&flat, &skewed, &nearest}) {
          // Thresholds: none, a stored tuple's exact score, and +inf.
          for (const double tau :
               {-std::numeric_limits<double>::infinity(),
                scorer->Score(ts[n / 3].key),
                std::numeric_limits<double>::infinity()}) {
            for (size_t k : {size_t{0}, size_t{1}, size_t{7}, size_t{40}}) {
              const std::string where =
                  std::string(Name(shape)) + " dims=" + std::to_string(dims) +
                  " n=" + std::to_string(n) + " k=" + std::to_string(k) +
                  " tau=" + std::to_string(tau);
              ResetKernelCounters();
              const TupleVec above = store.TopKAbove(*scorer, k, tau);
              const KernelCounters materialized = LocalKernelCounters();
              ResetKernelCounters();
              const LocalStore::TopKCount counted =
                  store.CountTopKAbove(*scorer, k, tau);
              EXPECT_EQ(counted.count, above.size()) << where;
              EXPECT_EQ(std::bit_cast<uint64_t>(counted.lowest),
                        LowestScoreBits(*scorer, above))
                  << where;
              EXPECT_EQ(LocalKernelCounters().tuples_scanned,
                        materialized.tuples_scanned)
                  << where;
              EXPECT_EQ(LocalKernelCounters().heap_pushes,
                        materialized.heap_pushes)
                  << where;

              ResetKernelCounters();
              const TupleVec below = store.BestBelow(*scorer, k, tau);
              const KernelCounters below_materialized = LocalKernelCounters();
              ResetKernelCounters();
              const LocalStore::TopKCount below_counted =
                  store.CountBestBelow(*scorer, k, tau);
              EXPECT_EQ(below_counted.count, below.size()) << where;
              EXPECT_EQ(std::bit_cast<uint64_t>(below_counted.lowest),
                        LowestScoreBits(*scorer, below))
                  << where;
              EXPECT_EQ(LocalKernelCounters().tuples_scanned,
                        below_materialized.tuples_scanned)
                  << where;
              EXPECT_EQ(LocalKernelCounters().heap_pushes,
                        below_materialized.heap_pushes)
                  << where;
            }
          }
        }
      }
    }
  }
  ResetKernelCounters();
}

TEST(FlatKernelsAdversarial, WithinMatchesRangeMatches) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double sub = std::numeric_limits<double>::min() / 4;  // subnormal
  for (int dims : {1, 2, 4, kMaxDims}) {
    Rng rng(1700 + dims);
    TupleVec ts = data::MakeUniform(90, dims, &rng);
    // Signed zeros and subnormals, in keys and in the center.
    const double specials[] = {0.0, -0.0, tiny, -tiny, sub, -sub};
    for (size_t i = 0; i < ts.size(); i += 3) {
      for (int d = 0; d < dims; ++d) {
        if (rng.Bernoulli(0.5)) ts[i].key[d] = specials[rng.UniformU64(6)];
      }
    }
    LocalStore store;
    store.AddAll(ts);
    Point center(dims);
    for (int d = 0; d < dims; ++d) {
      center[d] = d % 2 == 0 ? -0.0 : rng.UniformDouble();
    }
    for (const Norm norm : {Norm::kL1, Norm::kL2, Norm::kLInf}) {
      // Radii exactly on stored points' distances, zero of both signs,
      // and one that covers everything.
      std::vector<double> radii = {0.0, -0.0, tiny, 10.0};
      for (size_t i = 0; i < ts.size(); i += 7) {
        radii.push_back(Distance(ts[i].key, center, norm));
      }
      for (const double radius : radii) {
        const RangeQuery q{center, radius, norm};
        TupleVec want;
        store.ForEach([&](const Tuple& t) {
          if (q.Matches(t.key)) want.push_back(t);
        });
        ResetKernelCounters();
        const TupleVec got = store.Within(center, radius, norm);
        const KernelCounters after = LocalKernelCounters();
        EXPECT_TRUE(BitIdentical(got, want))
            << "dims=" << dims << " norm=" << static_cast<int>(norm)
            << " radius=" << radius;
        EXPECT_EQ(after.tuples_scanned, 0u);
        EXPECT_EQ(after.dominance_cmps, 0u);
        EXPECT_EQ(after.heap_pushes, 0u);
      }
    }
  }
  ResetKernelCounters();
}

// --- Write tails vs the oracle -----------------------------------------------
// An indexed store takes single writes into a tail of at most
// kIndexThreshold rows behind its k-d tree. Every kernel must answer
// exactly as the oracle does over the same rows, and as the same rows
// indexed with an empty tail. The rows arrive in two orders: as drawn,
// and sorted by the first coordinate, so the tail lies beyond the tree's
// rect and a traversal or an upper corner that skipped it would lose it.

/// A store over `ts` whose last `tail` rows were written one at a time
/// after a read indexed the rest.
LocalStore StoreWithTail(const TupleVec& ts, size_t tail) {
  LocalStore store;
  store.AddAll(TupleVec(ts.begin(), ts.end() - tail));
  (void)store.CountTopKAbove(
      LinearScorer(std::vector<double>(ts[0].key.dims(), -1.0)), 1,
      -std::numeric_limits<double>::infinity());
  for (auto it = ts.end() - tail; it != ts.end(); ++it) store.Add(*it);
  return store;
}

/// The tail sizes under test, with the 33rd write that folds the tail.
constexpr size_t kTails[] = {0, 1, 8, 9, LocalStore::kIndexThreshold,
                             LocalStore::kIndexThreshold + 1};

/// The rows of `ts` in both arrival orders.
std::vector<TupleVec> TailOrders(const TupleVec& ts) {
  TupleVec sorted = ts;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Tuple& a, const Tuple& b) {
                     return a.key[0] < b.key[0];
                   });
  return {ts, sorted};
}

TEST(FlatKernelsAdversarial, TailedTopKAndCountsMatchOracle) {
  constexpr size_t kRows = 120;
  for (Shape shape : kAllShapes) {
    for (int dims : {1, 2, 4, kMaxDims}) {
      for (const TupleVec& ts :
           TailOrders(AdversarialTuples(shape, kRows, dims, 1800 + dims))) {
        LocalStore reference;
        reference.AddAll(ts);
        const LinearScorer flat(std::vector<double>(dims, -1.0));
        const LinearScorer skewed = PreferenceScorer(dims, 1900 + dims);
        for (const size_t tail : kTails) {
          const LocalStore store = StoreWithTail(ts, tail);
          ASSERT_EQ(store.tail_size(),
                    tail > LocalStore::kIndexThreshold ? 0 : tail);
          for (const LinearScorer* scorer : {&flat, &skewed}) {
            auto score = [&](const Point& p) { return scorer->Score(p); };
            for (const double tau : {-std::numeric_limits<double>::infinity(),
                                     scorer->Score(ts[kRows / 3].key)}) {
              const std::string where =
                  std::string(Name(shape)) + " dims=" + std::to_string(dims) +
                  " tail=" + std::to_string(tail) +
                  " tau=" + std::to_string(tau);
              TupleVec above_tau, below_tau;
              for (const Tuple& t : ts) {
                (score(t.key) >= tau ? above_tau : below_tau).push_back(t);
              }
              for (size_t k : {size_t{1}, size_t{7}, size_t{40}, kRows}) {
                const TupleVec above = store.TopKAbove(*scorer, k, tau);
                EXPECT_TRUE(
                    BitIdentical(above, oracle::TopK(above_tau, score, k)))
                    << where << " k=" << k;
                EXPECT_TRUE(BitIdentical(store.BestBelow(*scorer, k, tau),
                                         oracle::TopK(below_tau, score, k)))
                    << where << " k=" << k;
                const LocalStore::TopKCount got =
                    store.CountTopKAbove(*scorer, k, tau);
                const LocalStore::TopKCount want =
                    reference.CountTopKAbove(*scorer, k, tau);
                EXPECT_EQ(got.count, want.count) << where << " k=" << k;
                EXPECT_EQ(std::bit_cast<uint64_t>(got.lowest),
                          std::bit_cast<uint64_t>(want.lowest))
                    << where << " k=" << k;
                const LocalStore::TopKCount got_below =
                    store.CountBestBelow(*scorer, k, tau);
                const LocalStore::TopKCount want_below =
                    reference.CountBestBelow(*scorer, k, tau);
                EXPECT_EQ(got_below.count, want_below.count)
                    << where << " k=" << k;
                EXPECT_EQ(std::bit_cast<uint64_t>(got_below.lowest),
                          std::bit_cast<uint64_t>(want_below.lowest))
                    << where << " k=" << k;
              }
              std::sort(above_tau.begin(), above_tau.end(), TupleIdLess());
              EXPECT_TRUE(
                  BitIdentical(store.AllAtLeast(*scorer, tau), above_tau))
                  << where;
            }
          }
        }
      }
    }
  }
}

TEST(FlatKernelsAdversarial, TailedSkybandMatchesOracle) {
  constexpr size_t kRows = 120;
  constexpr size_t kStateSource = 120;
  for (Shape shape : kAllShapes) {
    for (int dims : {1, 2, 4, kMaxDims}) {
      const TupleVec all = AdversarialTuples(shape, kRows + kStateSource,
                                             dims, 2000 + dims);
      const TupleVec others(all.begin() + kRows, all.end());
      for (const TupleVec& mine :
           TailOrders(TupleVec(all.begin(), all.begin() + kRows))) {
        TupleVec shared_source = others;
        shared_source.insert(shared_source.end(), mine.end() - 40,
                             mine.end());
        Point box_hi(dims);
        box_hi.Fill(0.6);
        const Rect box(Point(dims), box_hi);
        for (const size_t tail : kTails) {
          const LocalStore store = StoreWithTail(mine, tail);
          for (size_t k : {size_t{1}, size_t{2}, size_t{3}}) {
            const TupleVec states[] = {TupleVec{}, oracle::Skyband(others, k),
                                       oracle::Skyband(shared_source, k)};
            for (size_t s = 0; s < 3; ++s) {
              const std::string where =
                  std::string(Name(shape)) + " dims=" + std::to_string(dims) +
                  " tail=" + std::to_string(tail) +
                  " k=" + std::to_string(k) + " state=" + std::to_string(s);
              EXPECT_TRUE(BitIdentical(store.Skyband(states[s], k),
                                       StoreBandOracle(mine, states[s], k)))
                  << where;
              EXPECT_TRUE(
                  BitIdentical(store.Skyband(states[s], k, &box),
                               StoreBandOracle(mine, states[s], k, &box)))
                  << where << " boxed";
            }
          }
        }
      }
    }
  }
}

TEST(FlatKernelsAdversarial, TailedArgMinAndWithinMatchOracle) {
  constexpr size_t kRows = 120;
  for (Shape shape : kAllShapes) {
    for (int dims : {1, 2, 4, kMaxDims}) {
      for (const TupleVec& ts :
           TailOrders(AdversarialTuples(shape, kRows, dims, 2100 + dims))) {
        Point center(dims);
        center.Fill(0.5);
        center[0] = 1.0;  // nearest the tail in the sorted order
        for (const size_t tail : kTails) {
          const LocalStore store = StoreWithTail(ts, tail);
          for (const Norm norm : {Norm::kL1, Norm::kL2, Norm::kLInf}) {
            const std::string where =
                std::string(Name(shape)) + " dims=" + std::to_string(dims) +
                " tail=" + std::to_string(tail) +
                " norm=" + std::to_string(static_cast<int>(norm));
            auto cost = [&](const Point& p) {
              return Distance(p, center, norm);
            };
            auto lower = [&](const Rect& r) { return r.MinDist(center, norm); };
            for (const uint64_t skip : {uint64_t{1}, uint64_t{3}}) {
              auto admit = [&](const Tuple& t) { return t.id % skip == 0; };
              std::optional<Tuple> want;
              double want_cost = std::numeric_limits<double>::infinity();
              for (const Tuple& t : ts) {
                if (!admit(t)) continue;
                const double c = cost(t.key);
                if (!want.has_value() || c < want_cost ||
                    (c == want_cost && t.id < want->id)) {
                  want = t;
                  want_cost = c;
                }
              }
              double got_cost = 0.0;
              const std::optional<Tuple> got =
                  store.ArgMin(cost, lower, admit, &got_cost);
              ASSERT_TRUE(got.has_value()) << where;
              EXPECT_TRUE(BitIdentical({*got}, {*want}))
                  << where << " skip=" << skip;
              EXPECT_EQ(std::bit_cast<uint64_t>(got_cost),
                        std::bit_cast<uint64_t>(want_cost))
                  << where << " skip=" << skip;
            }
            for (size_t i = 0; i < kRows; i += 17) {
              const double radius = Distance(ts[i].key, center, norm);
              const RangeQuery q{center, radius, norm};
              TupleVec want;
              store.ForEach([&](const Tuple& t) {
                if (q.Matches(t.key)) want.push_back(t);
              });
              EXPECT_TRUE(
                  BitIdentical(store.Within(center, radius, norm), want))
                  << where << " radius=" << radius;
            }
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
