#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "geom/dominance.h"
#include "geom/scoring.h"
#include "oracle/oracle.h"
#include "queries/skyband.h"
#include "store/kd_index.h"
#include "store/local_algos.h"
#include "store/local_store.h"

namespace ripple {
namespace {

TupleVec RandomTuples(size_t n, int dims, Rng* rng, uint64_t base_id = 0) {
  TupleVec out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point p(dims);
    for (int d = 0; d < dims; ++d) p[d] = rng->UniformDouble();
    out.push_back(Tuple{base_id + i, p});
  }
  return out;
}

// --- ComputeSkyline ---------------------------------------------------------

TEST(SkylineTest, EmptyAndSingleton) {
  EXPECT_TRUE(ComputeSkyline({}).empty());
  TupleVec one = {Tuple{1, Point{0.5, 0.5}}};
  EXPECT_EQ(ComputeSkyline(one).size(), 1u);
}

TEST(SkylineTest, DominatedTupleRemoved) {
  TupleVec ts = {Tuple{1, Point{0.1, 0.1}}, Tuple{2, Point{0.5, 0.5}},
                 Tuple{3, Point{0.05, 0.9}}};
  const TupleVec sky = ComputeSkyline(ts);
  ASSERT_EQ(sky.size(), 2u);
  EXPECT_EQ(sky[0].id, 1u);
  EXPECT_EQ(sky[1].id, 3u);
}

TEST(SkylineTest, DuplicateIdsCollapsed) {
  TupleVec ts = {Tuple{1, Point{0.1, 0.9}}, Tuple{1, Point{0.1, 0.9}},
                 Tuple{2, Point{0.9, 0.1}}};
  EXPECT_EQ(ComputeSkyline(ts).size(), 2u);
}

TEST(SkylineTest, MatchesBruteForce) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const TupleVec ts = RandomTuples(200, 3, &rng);
    EXPECT_EQ(ComputeSkyline(ts), oracle::Skyline(ts));
  }
}

TEST(SkylineTest, SkylineOfSkylineIsIdempotent) {
  Rng rng(43);
  const TupleVec ts = RandomTuples(500, 4, &rng);
  const TupleVec sky = ComputeSkyline(ts);
  EXPECT_EQ(ComputeSkyline(sky), sky);
}

TEST(SkylineTest, EqualPointsBothSurvive) {
  TupleVec ts = {Tuple{1, Point{0.3, 0.3}}, Tuple{2, Point{0.3, 0.3}}};
  EXPECT_EQ(ComputeSkyline(ts).size(), 2u);
}

TEST(SkylineTest, MergeSkylinesEqualsJointSkyline) {
  Rng rng(97);
  for (int trial = 0; trial < 30; ++trial) {
    const TupleVec all = RandomTuples(300, 3, &rng);
    // Split into two halves, skyline each, merge, compare with the oracle.
    TupleVec a(all.begin(), all.begin() + 150);
    TupleVec b(all.begin() + 150, all.end());
    const TupleVec merged =
        MergeSkylines(ComputeSkyline(a), ComputeSkyline(b));
    EXPECT_EQ(merged, ComputeSkyline(all));
  }
}

TEST(SkylineTest, MergeSkylinesHandlesOverlap) {
  Rng rng(101);
  const TupleVec all = RandomTuples(200, 2, &rng);
  const TupleVec sky = ComputeSkyline(all);
  // Merging a skyline with itself (and with a superset-ish overlap) must
  // not duplicate or drop anything.
  EXPECT_EQ(MergeSkylines(sky, sky), sky);
  TupleVec half(sky.begin(), sky.begin() + sky.size() / 2);
  EXPECT_EQ(MergeSkylines(half, sky), sky);
}

TEST(SkylineTest, MergeSkylinesEmptySides) {
  Rng rng(103);
  const TupleVec sky = ComputeSkyline(RandomTuples(50, 2, &rng));
  EXPECT_EQ(MergeSkylines({}, sky), sky);
  EXPECT_EQ(MergeSkylines(sky, {}), sky);
  EXPECT_TRUE(MergeSkylines({}, {}).empty());
}

// --- Floating-point sum ties -------------------------------------------------
// a = (0.5, 1e-17) dominates b = (0.5, 2e-17), which dominates c = (0.5,
// 3e-17), yet all three coordinate sums round to 0.5. The ids run against
// the dominance order (c < b < a), so an order that breaks sum ties by id
// alone would visit the dominated tuples before their dominators.

TupleVec SumTieTuples() {
  return {Tuple{2, Point{0.5, 1e-17}}, Tuple{1, Point{0.5, 2e-17}},
          Tuple{0, Point{0.5, 3e-17}}};
}

std::vector<uint64_t> Ids(const TupleVec& ts) {
  std::vector<uint64_t> ids;
  for (const Tuple& t : ts) ids.push_back(t.id);
  return ids;
}

TEST(SumTieTest, SkylineKeepsOnlyTheDominator) {
  const TupleVec ts = SumTieTuples();
  ASSERT_EQ(ts[0].key[0] + ts[0].key[1], ts[2].key[0] + ts[2].key[1]);
  EXPECT_EQ(Ids(ComputeSkyline(ts)), std::vector<uint64_t>{2});
}

TEST(SumTieTest, SkybandCountsTiedDominators) {
  const TupleVec ts = SumTieTuples();
  EXPECT_EQ(Ids(ComputeKSkyband(ts, 1)), std::vector<uint64_t>{2});
  EXPECT_EQ(Ids(ComputeKSkyband(ts, 2)), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(Ids(ComputeKSkyband(ts, 3)), (std::vector<uint64_t>{0, 1, 2}));
}

TEST(SumTieTest, MergeOfPartSkylinesKeepsOnlyTheDominator) {
  TupleVec left = SumTieTuples();
  left.push_back(Tuple{10, Point{0.9, 0.9}});
  const TupleVec right = {Tuple{11, Point{0.1, 0.95}},
                          Tuple{12, Point{0.95, 0.96}}};
  EXPECT_EQ(Ids(MergeSkylines(ComputeSkyline(left), ComputeSkyline(right))),
            (std::vector<uint64_t>{2, 11}));
  // Directly: the cross-dominance tests see through the tie both ways.
  const TupleVec a = {SumTieTuples()[0]};
  const TupleVec b = {SumTieTuples()[1]};
  EXPECT_EQ(Ids(MergeSkylines(a, b)), std::vector<uint64_t>{2});
  EXPECT_EQ(Ids(MergeSkylines(b, a)), std::vector<uint64_t>{2});
}

// --- SelectTopK -------------------------------------------------------------

TEST(SelectTopKTest, OrdersByScoreThenId) {
  LinearScorer s({1.0, 0.0});
  TupleVec ts = {Tuple{5, Point{0.5, 0.0}}, Tuple{2, Point{0.9, 0.0}},
                 Tuple{3, Point{0.5, 0.0}}};
  auto got = SelectTopK(ts, [&](const Point& p) { return s.Score(p); }, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 2u);
  EXPECT_EQ(got[1].id, 3u);  // tie with id 5 broken by smaller id
}

TEST(SelectTopKTest, KLargerThanInput) {
  LinearScorer s({1.0});
  TupleVec ts = {Tuple{1, Point{0.5}}, Tuple{2, Point{0.7}}};
  auto got = SelectTopK(ts, [&](const Point& p) { return s.Score(p); }, 10);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 2u);
}

// --- KdIndex ----------------------------------------------------------------

TEST(KdIndexTest, TopKAgreesWithScan) {
  Rng rng(47);
  const TupleVec ts = RandomTuples(400, 3, &rng);
  KdIndex idx(ts);
  LinearScorer s({0.2, 0.5, 0.3});
  auto score = [&](const Point& p) { return s.Score(p); };
  for (size_t k : {1u, 5u, 17u, 100u}) {
    const TupleVec got = idx.TopK(s, k);
    const TupleVec want = SelectTopK(ts, score, k);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "k=" << k << " i=" << i;
    }
  }
}

TEST(KdIndexTest, FullTailGrowsTheColumnsOnce) {
  // Build sizes the columns exactly. The first tail row reserves room for
  // the whole tail, so a full tail does not double every column.
  Rng rng(83);
  KdIndex idx(RandomTuples(100, 2, &rng));
  const size_t bound = LocalStore::kIndexThreshold;
  for (const Tuple& t : RandomTuples(bound, 2, &rng, 1000)) {
    idx.AppendTail(t, bound);
  }
  ASSERT_EQ(idx.tail_size(), bound);
  EXPECT_LE(idx.rows().ids().capacity(), 100 + bound);
}

TEST(KdIndexTest, TopKRespectsFloor) {
  Rng rng(53);
  const TupleVec ts = RandomTuples(300, 2, &rng);
  KdIndex idx(ts);
  LinearScorer s({1.0, 1.0});
  const double floor = 1.4;
  const TupleVec got = idx.TopK(s, 1000, floor);
  size_t expected = 0;
  for (const Tuple& t : ts) {
    if (s.Score(t.key) > floor) ++expected;
  }
  EXPECT_EQ(got.size(), expected);
  for (const Tuple& t : got) EXPECT_GT(s.Score(t.key), floor);
}

TEST(KdIndexTest, CollectAtLeastAgreesWithScan) {
  Rng rng(59);
  const TupleVec ts = RandomTuples(500, 4, &rng);
  KdIndex idx(ts);
  LinearScorer s({0.25, 0.25, 0.25, 0.25});
  for (double tau : {0.2, 0.5, 0.8}) {
    TupleVec got;
    idx.CollectAtLeast(s, tau, &got);
    size_t expected = 0;
    for (const Tuple& t : ts) {
      if (s.Score(t.key) >= tau) ++expected;
    }
    EXPECT_EQ(got.size(), expected) << "tau=" << tau;
  }
}

TEST(KdIndexTest, ArgMinAgreesWithScanAndRespectsAdmit) {
  Rng rng(61);
  const TupleVec ts = RandomTuples(400, 3, &rng);
  KdIndex idx(ts);
  const Point q{0.4, 0.4, 0.4};
  auto cost = [&](const Point& p) { return L2Distance(p, q); };
  auto lower = [&](const Rect& r) { return r.MinDist(q, Norm::kL2); };
  std::set<uint64_t> excluded = {ts[0].id, ts[10].id, ts[20].id};
  auto admit = [&](const Tuple& t) { return !excluded.count(t.id); };
  double best_cost = 0;
  const std::optional<Tuple> got = idx.ArgMin(cost, lower, admit, &best_cost);
  ASSERT_TRUE(got.has_value());
  const Tuple* want = nullptr;
  double want_cost = 1e18;
  for (const Tuple& t : ts) {
    if (!admit(t)) continue;
    const double c = cost(t.key);
    if (c < want_cost) {
      want_cost = c;
      want = &t;
    }
  }
  EXPECT_EQ(got->id, want->id);
  EXPECT_DOUBLE_EQ(best_cost, want_cost);
  EXPECT_FALSE(excluded.count(got->id));
}

TEST(KdIndexTest, EmptyIndex) {
  KdIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_TRUE(idx.TopK(LinearScorer({1.0}), 5).empty());
  TupleVec collected;
  idx.CollectAtLeast(LinearScorer({1.0}), 0.0, &collected);
  EXPECT_TRUE(collected.empty());
  auto zero = [](const Point&) { return 0.0; };
  auto zero_r = [](const Rect&) { return 0.0; };
  double c = 0;
  EXPECT_FALSE(
      idx.ArgMin(zero, zero_r, [](const Tuple&) { return true; }, &c)
          .has_value());
}

// --- LocalStore -------------------------------------------------------------

TEST(LocalStoreTest, ExtractOutsideMovesCorrectTuples) {
  LocalStore store;
  const Rect domain = Rect::Unit(2);
  store.Add(Tuple{1, Point{0.2, 0.2}});
  store.Add(Tuple{2, Point{0.8, 0.8}});
  store.Add(Tuple{3, Point{0.5, 0.1}});  // on the split face -> upper half
  const auto [lower, upper] = domain.Split(0, 0.5);
  TupleVec moved = store.ExtractOutside(lower, domain);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.flat().id(0), 1u);
}

TEST(LocalStoreTest, TopKAboveIsThresholdInclusive) {
  // Inclusive so a tuple witnessing the threshold itself is selected — the
  // boundary case that would otherwise drop the k-th answer tuple.
  LocalStore store;
  LinearScorer s({1.0});
  store.Add(Tuple{1, Point{0.3}});
  store.Add(Tuple{2, Point{0.5}});
  store.Add(Tuple{3, Point{0.7}});
  TupleVec got = store.TopKAbove(s, 5, 0.5);
  ASSERT_EQ(got.size(), 2u);  // 0.7 and the 0.5 witness
  EXPECT_EQ(got[0].id, 3u);
  EXPECT_EQ(got[1].id, 2u);
}

TEST(LocalStoreTest, BestBelowIsStrict) {
  LocalStore store;
  LinearScorer s({1.0});
  store.Add(Tuple{1, Point{0.3}});
  store.Add(Tuple{2, Point{0.5}});
  store.Add(Tuple{3, Point{0.7}});
  TupleVec got = store.BestBelow(s, 2, 0.5);
  ASSERT_EQ(got.size(), 1u);  // only 0.3: the 0.5 tuple belongs "above"
  EXPECT_EQ(got[0].id, 1u);
}

TEST(LocalStoreTest, ScanAndIndexPathsAgree) {
  // Exercise both the small-store scan path and the indexed path with the
  // same logical data.
  Rng rng(67);
  const TupleVec ts = RandomTuples(200, 3, &rng);  // above index threshold
  LocalStore big;
  big.AddAll(ts);
  LocalStore small;  // split across many small stores would scan; here we
  small.AddAll(TupleVec(ts.begin(), ts.begin() + 20));
  LinearScorer s({0.5, 0.3, 0.2});
  const TupleVec got_big = big.TopKAbove(s, 10, 0.0);
  const TupleVec want_big =
      SelectTopK(ts, [&](const Point& p) { return s.Score(p); }, 10);
  ASSERT_EQ(got_big.size(), want_big.size());
  for (size_t i = 0; i < got_big.size(); ++i) {
    EXPECT_EQ(got_big[i].id, want_big[i].id);
  }
  const TupleVec got_small = small.TopKAbove(s, 3, 0.0);
  const TupleVec want_small =
      SelectTopK(TupleVec(ts.begin(), ts.begin() + 20),
                 [&](const Point& p) { return s.Score(p); }, 3);
  ASSERT_EQ(got_small.size(), want_small.size());
  for (size_t i = 0; i < got_small.size(); ++i) {
    EXPECT_EQ(got_small[i].id, want_small[i].id);
  }
}

TEST(LocalStoreTest, MutationInvalidatesIndex) {
  Rng rng(71);
  LocalStore store;
  store.AddAll(RandomTuples(100, 2, &rng));
  LinearScorer s({1.0, 0.0});
  (void)store.TopKAbove(s, 1, 0.0);  // builds the index
  store.Add(Tuple{9999, Point{0.999, 0.0}});
  const TupleVec got = store.TopKAbove(s, 1, 0.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 9999u);
}

TEST(LocalStoreTest, AddBelowTheBoundKeepsTheIndex) {
  // Up to kIndexThreshold single writes join the published index's tail;
  // a read in between sees them without a rebuild, so the tail keeps
  // growing. The next write clears the index, and the read after it
  // rebuilds the whole store with an empty tail.
  Rng rng(79);
  LocalStore store;
  store.AddAll(RandomTuples(100, 2, &rng));
  LinearScorer s({1.0, 0.0});
  EXPECT_EQ(store.tail_size(), 0u);
  (void)store.TopKAbove(s, 1, 0.0);  // builds the index
  for (size_t i = 1; i <= LocalStore::kIndexThreshold; ++i) {
    const double x = 1.0 + static_cast<double>(i);
    store.Add(Tuple{1000 + i, Point{x, 0.0}});
    EXPECT_EQ(store.tail_size(), i);
    const TupleVec got = store.TopKAbove(s, 1, 0.0);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].id, 1000 + i) << "the newest tail row scores best";
    EXPECT_EQ(store.tail_size(), i) << "the read rebuilt nothing";
  }
  store.Add(Tuple{5000, Point{100.0, 0.0}});
  EXPECT_EQ(store.tail_size(), 0u) << "the write past the bound folds";
  const TupleVec got = store.TopKAbove(s, 1, 0.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 5000u);
  EXPECT_EQ(store.tail_size(), 0u);
  EXPECT_EQ(store.size(), 100 + LocalStore::kIndexThreshold + 1);
  // Bulk writes always clear the index.
  store.Add(Tuple{5001, Point{0.5, 0.5}});
  EXPECT_EQ(store.tail_size(), 1u);
  store.AddAll(RandomTuples(3, 2, &rng, 6000));
  EXPECT_EQ(store.tail_size(), 0u);
}

TEST(LocalStoreTest, ArgMinBreaksTiesBySmallestIdOnEveryPath) {
  // 64 copies of one key, ids 1000 down to 937: every row ties on cost,
  // so the smallest id must win on the indexed store, below the index
  // threshold, and with the winner in the write tail.
  const Point key{0.25, 0.75};
  const Point q{0.5, 0.5};
  auto cost = [&](const Point& p) { return L2Distance(p, q); };
  auto lower = [&](const Rect& r) { return r.MinDist(q, Norm::kL2); };
  auto admit = [](const Tuple&) { return true; };
  TupleVec ts;
  for (uint64_t id = 1000; id >= 937; --id) ts.push_back(Tuple{id, key});
  LocalStore indexed;
  indexed.AddAll(ts);
  LocalStore flat;
  flat.AddAll(TupleVec(ts.end() - 20, ts.end()));
  LocalStore tailed;
  tailed.AddAll(TupleVec(ts.begin(), ts.end() - 8));
  (void)tailed.ArgMin(cost, lower, admit, nullptr);  // builds the index
  for (auto it = ts.end() - 8; it != ts.end(); ++it) tailed.Add(*it);
  ASSERT_EQ(tailed.tail_size(), 8u);
  for (const LocalStore* store : {&indexed, &flat, &tailed}) {
    double c = -1.0;
    const std::optional<Tuple> got = store->ArgMin(cost, lower, admit, &c);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->id, 937u) << "store of " << store->size();
    EXPECT_EQ(c, cost(key));
  }
}

TEST(LocalStoreTest, ContainsIdFollowsMutations) {
  LocalStore store;
  EXPECT_FALSE(store.ContainsId(0));
  store.AddAll({Tuple{7, Point{0.5, 0.5}}, Tuple{3, Point{0.1, 0.9}}});
  EXPECT_TRUE(store.ContainsId(7));
  EXPECT_TRUE(store.ContainsId(3));
  EXPECT_FALSE(store.ContainsId(5));
  store.Add(Tuple{5, Point{0.9, 0.1}});
  EXPECT_TRUE(store.ContainsId(5));
  const Rect domain(Point(2), Point{1.0, 1.0});
  (void)store.ExtractOutside(Rect(Point(2), Point{0.6, 0.6}), domain);
  EXPECT_TRUE(store.ContainsId(7));
  EXPECT_FALSE(store.ContainsId(3));
  EXPECT_FALSE(store.ContainsId(5));
  store.Clear();
  EXPECT_FALSE(store.ContainsId(7));
}

TEST(LocalStoreTest, LocalSkylineMatchesComputeSkyline) {
  Rng rng(73);
  const TupleVec ts = RandomTuples(150, 3, &rng);
  LocalStore store;
  store.AddAll(ts);
  EXPECT_EQ(store.LocalSkyline(), ComputeSkyline(ts));
}

}  // namespace
}  // namespace ripple
