// The reuse layer (ctest label `cache`): RippleParam::Auto parsing, key
// normalization, the LRU/TTL answer cache and bound index, the adaptive
// controller's determinism, and batched execution returning answers
// byte-identical to cold runs across both engines (docs/CACHING.md).

#include "cache/query_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "cache/adaptive.h"
#include "cache/normalize.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "exec/batch.h"
#include "exec/executor.h"
#include "exec/workload.h"
#include "overlay/midas/midas.h"
#include "queries/topk_driver.h"
#include "ripple/api.h"
#include "ripple/engine.h"
#include "sim/async_engine.h"

namespace ripple {
namespace {

// --- RippleParam::Auto and the Parse/ToString round trip ----------------------

TEST(RippleParamTest, ParseToStringRoundTrip) {
  const RippleParam params[] = {
      RippleParam::Fast(),   RippleParam::Slow(), RippleParam::Auto(),
      RippleParam::Hops(0),  RippleParam::Hops(1), RippleParam::Hops(3),
      RippleParam::Hops(17),
  };
  for (const RippleParam p : params) {
    const Result<RippleParam> back = RippleParam::Parse(p.ToString());
    ASSERT_TRUE(back.ok()) << p.ToString();
    EXPECT_EQ(*back, p) << p.ToString();
  }
}

TEST(RippleParamTest, RejectsGarbage) {
  for (const char* bad : {"auto2", "-3", "", "Fast", "3x", " slow", "1.5"}) {
    EXPECT_FALSE(RippleParam::Parse(bad).ok()) << "'" << bad << "'";
  }
}

TEST(RippleParamTest, AutoIsDistinctAndDegradesToFast) {
  const RippleParam a = RippleParam::Auto();
  EXPECT_TRUE(a.is_auto());
  EXPECT_EQ(a.ToString(), "auto");
  EXPECT_NE(a, RippleParam::Fast());
  EXPECT_NE(a, RippleParam::Slow());
  // An engine handed an unresolved Auto must behave, not crash: hops()
  // degrades to the fast extreme (0 slow hops).
  EXPECT_EQ(a.hops(), 0);
}

// --- Key normalization --------------------------------------------------------

TEST(NormalizeTest, LinearScorersShareKeysUpToScale) {
  const LinearScorer w({-0.5, -0.3, -0.2});
  const LinearScorer w2({-1.25, -0.75, -0.5});  // 2.5x the weights
  const LinearScorer other({-0.2, -0.5, -0.3});
  double s1 = 0.0, s2 = 0.0, s3 = 0.0;
  const std::string k1 = cache::NormalizeScorer(w, &s1);
  const std::string k2 = cache::NormalizeScorer(w2, &s2);
  const std::string k3 = cache::NormalizeScorer(other, &s3);
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_NEAR(s2 / s1, 2.5, 1e-12);
}

TEST(NormalizeTest, ApproximateTopKIsUncacheable) {
  const LinearScorer w({-0.5, -0.5});
  TopKQuery exact{&w, 10};
  TopKQuery approx{&w, 10, 0.25};
  EXPECT_FALSE(cache::TopKAnswerKey(exact).empty());
  EXPECT_TRUE(cache::TopKAnswerKey(approx).empty());
}

TEST(NormalizeTest, BoundKeyIgnoresK) {
  const LinearScorer w({-0.5, -0.5});
  TopKQuery q10{&w, 10};
  TopKQuery q5{&w, 5};
  double s10 = 0.0, s5 = 0.0;
  EXPECT_EQ(cache::TopKBoundKey(q10, &s10), cache::TopKBoundKey(q5, &s5));
  EXPECT_NE(cache::TopKAnswerKey(q10), cache::TopKAnswerKey(q5));
}

TEST(NormalizeTest, LoosenBoundNeverRaises) {
  for (const double tau : {1.0, -1.0, 1e-9, -273.75, 0.0, 1e300}) {
    EXPECT_LT(cache::LoosenBound(tau), tau) << tau;
  }
}

// --- QueryCache ---------------------------------------------------------------

Tuple MakeTuple(uint64_t id) {
  Tuple t;
  t.id = id;
  t.key = Point{0.1, 0.2};
  return t;
}

TEST(QueryCacheTest, LruEvictsOldest) {
  cache::QueryCache c(cache::CacheOptions{2, 0});
  c.Insert("a", {MakeTuple(1)}, {});
  c.Insert("b", {MakeTuple(2)}, {});
  ASSERT_NE(c.Lookup("a"), nullptr);  // bumps "a" ahead of "b"
  c.Insert("c", {MakeTuple(3)}, {});  // evicts the LRU entry: "b"
  EXPECT_EQ(c.Lookup("b"), nullptr);
  ASSERT_NE(c.Lookup("a"), nullptr);
  ASSERT_NE(c.Lookup("c"), nullptr);
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(QueryCacheTest, TtlExpiresByLogicalTicks) {
  cache::QueryCache c(cache::CacheOptions{8, 2});
  c.Insert("a", {MakeTuple(1)}, {});
  c.Tick();
  EXPECT_NE(c.Lookup("a"), nullptr);
  c.Tick();
  c.Tick();
  EXPECT_EQ(c.Lookup("a"), nullptr);  // 3 ticks > ttl 2: expired
  EXPECT_EQ(c.stats().expirations, 1u);
}

TEST(QueryCacheTest, HitsCreditSavedBytes) {
  cache::QueryCache c;
  QueryStats cold;
  cold.bytes_on_wire = 1234;
  c.Insert("a", {MakeTuple(1)}, cold);
  ASSERT_NE(c.Lookup("a"), nullptr);
  ASSERT_NE(c.Lookup("a"), nullptr);
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().bytes_saved, 2468u);
}

TEST(QueryCacheTest, BoundKeepsStrongestClaim) {
  cache::QueryCache c;
  c.InsertBound("s", 10, -0.5);
  c.InsertBound("s", 5, -0.1);  // weaker m: ignored
  ASSERT_NE(c.LookupBound("s"), nullptr);
  EXPECT_EQ(c.LookupBound("s")->m, 10u);
  c.InsertBound("s", 10, -0.3);  // same m, tighter tau: wins
  EXPECT_DOUBLE_EQ(c.LookupBound("s")->tau_norm, -0.3);
}

TEST(QueryCacheTest, InvalidateAllDropsEverything) {
  cache::QueryCache c;
  c.Insert("a", {MakeTuple(1)}, {});
  c.InsertBound("s", 10, -0.5);
  c.InvalidateAll();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.bound_size(), 0u);
  EXPECT_EQ(c.Lookup("a"), nullptr);
  EXPECT_EQ(c.LookupBound("s"), nullptr);
  EXPECT_GE(c.stats().invalidations, 1u);
}

// --- Batched execution over a real overlay ------------------------------------

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

bool SameAnswer(const TupleVec& a, const TupleVec& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
  }
  return true;
}

/// A locality workload: four groups, four members each, mixed kinds.
std::vector<exec::WorkloadItem> LocalityItems() {
  std::vector<exec::WorkloadItem> items;
  for (int g = 0; g < 4; ++g) {
    exec::WorkloadItem item;
    switch (g % 4) {
      case 0: item.kind = exec::WorkloadItem::Kind::kTopK; item.k = 8; break;
      case 1: item.kind = exec::WorkloadItem::Kind::kSkyline; break;
      case 2:
        item.kind = exec::WorkloadItem::Kind::kRange;
        item.radius = 0.2;
        break;
      default:
        item.kind = exec::WorkloadItem::Kind::kSkyband;
        item.band = 2;
        break;
    }
    item.group = g;
    for (int rep = 0; rep < 4; ++rep) items.push_back(item);
  }
  return items;
}

TEST(BatchTest, CacheHitsAreByteIdenticalToColdRunsBothEngines) {
  Net net = MakeNet(64, 1500, 3, 811);
  const std::vector<exec::WorkloadItem> items = LocalityItems();
  for (const bool async : {false, true}) {
    exec::CompileOptions copts;
    copts.seed = 11;
    copts.async = async;
    exec::ExecutorOptions eopts;
    eopts.threads = 2;
    eopts.queue_capacity = 8;

    // Cold: the legacy unbatched path.
    exec::Executor cold_exec(eopts);
    exec::CompiledWorkload compiled =
        exec::CompileWorkload(net.overlay, items, copts);
    const exec::WorkloadResult cold =
        cold_exec.Run(compiled.jobs, net.overlay.NumPeers());

    // Warm: two batched passes over one cache — pass 2 is pure hits.
    cache::QueryCache qcache;
    exec::Executor warm_exec(eopts);
    exec::BatchOptions bopts;
    bopts.cache = &qcache;
    for (int pass = 0; pass < 2; ++pass) {
      exec::BatchPlan plan;
      const exec::WorkloadResult warm = exec::RunBatchedWorkload(
          warm_exec, net.overlay, items, copts, bopts, &plan);
      ASSERT_EQ(warm.queries.size(), cold.queries.size());
      for (size_t i = 0; i < cold.queries.size(); ++i) {
        EXPECT_TRUE(
            SameAnswer(warm.queries[i].answer, cold.queries[i].answer))
            << "async=" << async << " pass=" << pass << " item=" << i;
        EXPECT_TRUE(warm.queries[i].complete);
      }
      if (pass == 1) {
        EXPECT_EQ(plan.hits, items.size());
        EXPECT_EQ(plan.leads, 0u);
        EXPECT_EQ(warm.total_stats.bytes_on_wire, 0u);
      }
    }
    EXPECT_GT(qcache.stats().hits, 0u);
    EXPECT_GT(qcache.stats().bytes_saved, 0u);
  }
}

TEST(BatchTest, HitAnswersMoveOutOfThePlanNotTheCache) {
  // ExpandBatchedResult moves each hit's answer out of its plan slot. The
  // move may empty only the plan's copy: the outcome carries the cold
  // answer, the cache still serves the full entry, and the plan keeps
  // every slot's role and key.
  Net net = MakeNet(64, 1500, 3, 811);
  const std::vector<exec::WorkloadItem> items = LocalityItems();
  exec::CompileOptions copts;
  copts.seed = 13;
  exec::ExecutorOptions eopts;
  eopts.threads = 2;
  eopts.queue_capacity = 8;
  exec::Executor executor(eopts);
  exec::CompiledWorkload compiled =
      exec::CompileWorkload(net.overlay, items, copts);
  const exec::WorkloadResult cold =
      executor.Run(compiled.jobs, net.overlay.NumPeers());

  cache::QueryCache qcache;
  exec::BatchOptions bopts;
  bopts.cache = &qcache;
  exec::BatchPlan first;
  (void)exec::RunBatchedWorkload(executor, net.overlay, items, copts, bopts,
                                 &first);
  exec::BatchPlan plan;
  const exec::WorkloadResult warm = exec::RunBatchedWorkload(
      executor, net.overlay, items, copts, bopts, &plan);
  ASSERT_EQ(plan.slots.size(), items.size());
  ASSERT_EQ(warm.queries.size(), items.size());
  EXPECT_EQ(plan.hits, items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const exec::BatchSlot& slot = plan.slots[i];
    EXPECT_EQ(slot.role, exec::BatchSlot::Role::kHit) << "item " << i;
    EXPECT_EQ(slot.key, first.slots[i].key) << "item " << i;
    ASSERT_FALSE(slot.key.empty()) << "item " << i;
    EXPECT_TRUE(SameAnswer(warm.queries[i].answer, cold.queries[i].answer))
        << "item " << i;
    const cache::QueryCache::Entry* entry = qcache.Lookup(slot.key);
    ASSERT_NE(entry, nullptr) << "item " << i;
    EXPECT_FALSE(entry->answer.empty()) << "item " << i;
    EXPECT_TRUE(SameAnswer(entry->answer, cold.queries[i].answer))
        << "item " << i;
  }
}

TEST(BatchTest, MergedFollowersCopyLeaderWithZeroCost) {
  Net net = MakeNet(48, 1000, 2, 823);
  const std::vector<exec::WorkloadItem> items = LocalityItems();
  exec::CompileOptions copts;
  copts.seed = 5;
  exec::ExecutorOptions eopts;
  eopts.threads = 2;
  eopts.queue_capacity = 8;
  exec::Executor executor(eopts);
  cache::QueryCache qcache;
  exec::BatchOptions bopts;
  bopts.cache = &qcache;
  exec::BatchPlan plan;
  const exec::WorkloadResult result = exec::RunBatchedWorkload(
      executor, net.overlay, items, copts, bopts, &plan);
  ASSERT_EQ(plan.slots.size(), items.size());
  EXPECT_GT(plan.follows, 0u);
  EXPECT_EQ(plan.leads + plan.follows + plan.hits, items.size());
  EXPECT_EQ(result.completed, items.size());
  size_t followers_seen = 0;
  for (size_t i = 0; i < plan.slots.size(); ++i) {
    const exec::BatchSlot& slot = plan.slots[i];
    if (slot.role != exec::BatchSlot::Role::kFollow) continue;
    ++followers_seen;
    const exec::QueryOutcome& follow = result.queries[i];
    const exec::QueryOutcome& lead = result.queries[slot.leader];
    EXPECT_TRUE(SameAnswer(follow.answer, lead.answer));
    EXPECT_EQ(follow.worker, -1);
    EXPECT_EQ(follow.stats.messages, 0u);
    EXPECT_EQ(follow.stats.bytes_on_wire, 0u);
  }
  EXPECT_EQ(followers_seen, plan.follows);
}

TEST(BatchTest, BoundSeededTopKCrossValidates) {
  Net net = MakeNet(96, 1200, 3, 901);
  LinearScorer scorer({-0.5, -0.3, -0.2});
  TopKQuery q{&scorer, 10};
  Rng rng(3);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  QueryRequest<TopKPolicy> cold_req;
  cold_req.initiator = initiator;
  cold_req.query = q;
  cold_req.ripple = RippleParam::Hops(2);
  Engine<MidasOverlay, TopKPolicy> sync_engine(&net.overlay, TopKPolicy{});
  AsyncEngine<MidasOverlay, TopKPolicy> async_engine(&net.overlay,
                                                     TopKPolicy{});
  const auto cold = SeededTopK(net.overlay, sync_engine, cold_req);
  ASSERT_TRUE(cold.complete);
  ASSERT_EQ(cold.answer.size(), q.k);

  // Rebuild the bound the cache would store: normalize the witnessed
  // threshold out, rescale it back, loosen. The seeded run must return
  // the byte-identical answer on BOTH engines, for strictly less wire.
  double scale = 1.0;
  (void)cache::TopKBoundKey(q, &scale);
  double tau = std::numeric_limits<double>::infinity();
  for (const Tuple& t : cold.answer) {
    tau = std::min(tau, scorer.Score(t.key));
  }
  QueryRequest<TopKPolicy> seeded = cold_req;
  seeded.initial_state =
      TopKState{cold.answer.size(), cache::LoosenBound((tau / scale) * scale)};

  const auto warm_sync = SeededTopK(net.overlay, sync_engine, seeded);
  const auto warm_async = SeededTopK(net.overlay, async_engine, seeded);
  ASSERT_TRUE(warm_sync.complete);
  EXPECT_TRUE(SameAnswer(warm_sync.answer, cold.answer));
  EXPECT_TRUE(SameAnswer(warm_async.answer, cold.answer));
  // CrossValidate: both engines do identical work on the seeded request.
  EXPECT_EQ(warm_async.stats.peers_visited, warm_sync.stats.peers_visited);
  EXPECT_EQ(warm_async.stats.messages, warm_sync.stats.messages);
  EXPECT_EQ(warm_async.stats.tuples_shipped, warm_sync.stats.tuples_shipped);
  EXPECT_EQ(warm_async.stats.bytes_on_wire, warm_sync.stats.bytes_on_wire);
  // The pre-hop bound can only help.
  EXPECT_LE(warm_sync.stats.bytes_on_wire, cold.stats.bytes_on_wire);
  EXPECT_LE(warm_sync.stats.tuples_shipped, cold.stats.tuples_shipped);
}

TEST(BatchTest, ChurnInvalidationRecomputesFromScratch) {
  Net net = MakeNet(48, 1000, 2, 829);
  const std::vector<exec::WorkloadItem> items = LocalityItems();
  exec::CompileOptions copts;
  copts.seed = 17;
  exec::ExecutorOptions eopts;
  eopts.threads = 1;
  eopts.queue_capacity = 8;
  exec::Executor executor(eopts);
  cache::QueryCache qcache;
  exec::BatchOptions bopts;
  bopts.cache = &qcache;
  (void)exec::RunBatchedWorkload(executor, net.overlay, items, copts, bopts);
  ASSERT_GT(qcache.size(), 0u);

  // Injected churn: a peer joins, redistributing tuples. Cached answers
  // may now be stale — the owner's contract is InvalidateAll, after
  // which nothing hits and every query recomputes against the new
  // topology.
  net.overlay.Join();
  qcache.InvalidateAll();
  EXPECT_EQ(qcache.size(), 0u);
  exec::BatchPlan plan;
  const exec::WorkloadResult fresh = exec::RunBatchedWorkload(
      executor, net.overlay, items, copts, bopts, &plan);
  EXPECT_EQ(plan.hits, 0u);
  EXPECT_EQ(fresh.completed, items.size());
  for (const exec::QueryOutcome& out : fresh.queries) {
    EXPECT_TRUE(out.complete);
  }
}

// --- The adaptive controller --------------------------------------------------

TEST(AdaptiveTest, DepthHintGrowsWithPeers) {
  EXPECT_EQ(cache::DepthHint(1), 0);
  EXPECT_EQ(cache::DepthHint(2), 1);
  EXPECT_EQ(cache::DepthHint(64), 6);
  EXPECT_EQ(cache::DepthHint(65), 7);
}

TEST(AdaptiveTest, ChoiceRespondsToObservedPressure) {
  cache::AdaptiveController c(12);  // depth 12 -> r0 = 4
  const RippleParam r0 = c.Choose();
  EXPECT_EQ(r0, RippleParam::Hops(4));
  // Broadcast-heavy window: many messages per latency hop -> raise r.
  QueryStats flood;
  flood.latency_hops = 2;
  flood.messages = 40;
  for (int i = 0; i < 8; ++i) c.Observe(flood);
  EXPECT_EQ(c.Choose(), RippleParam::Hops(5));
  // Calm window: pruning works -> drift back down toward fast.
  QueryStats calm;
  calm.latency_hops = 10;
  calm.messages = 10;
  for (int i = 0; i < 16; ++i) c.Observe(calm);
  EXPECT_EQ(c.Choose(), RippleParam::Hops(3));
}

TEST(AdaptiveTest, AutoWorkloadDeterministicAcrossRunsAndThreads) {
  Net net = MakeNet(64, 1500, 3, 907);
  std::vector<exec::WorkloadItem> items = LocalityItems();
  for (exec::WorkloadItem& item : items) item.ripple = RippleParam::Auto();

  std::vector<TupleVec> golden_answers;
  QueryStats golden_stats;
  std::vector<RippleParam> golden_resolved;
  bool first = true;
  for (const int threads : {1, 2, 4}) {
    for (int run = 0; run < 3; ++run) {
      exec::CompileOptions copts;
      copts.seed = 23;
      exec::ExecutorOptions eopts;
      eopts.threads = threads;
      eopts.queue_capacity = 8;
      exec::Executor executor(eopts);
      cache::AdaptiveController controller(
          cache::DepthHint(net.overlay.NumPeers()));
      exec::BatchOptions bopts;
      bopts.controller = &controller;
      bopts.merge_duplicates = false;  // every auto item runs
      exec::BatchPlan plan;
      const exec::WorkloadResult result = exec::RunBatchedWorkload(
          executor, net.overlay, items, copts, bopts, &plan);
      ASSERT_EQ(result.completed, items.size());
      std::vector<RippleParam> resolved;
      for (const exec::WorkloadItem& item : plan.items) {
        EXPECT_FALSE(item.ripple.is_auto());
        resolved.push_back(item.ripple);
      }
      if (first) {
        first = false;
        for (const exec::QueryOutcome& out : result.queries) {
          golden_answers.push_back(out.answer);
        }
        golden_stats = result.total_stats;
        golden_resolved = resolved;
        continue;
      }
      ASSERT_EQ(resolved.size(), golden_resolved.size());
      for (size_t i = 0; i < resolved.size(); ++i) {
        EXPECT_EQ(resolved[i], golden_resolved[i]) << i;
      }
      ASSERT_EQ(result.queries.size(), golden_answers.size());
      for (size_t i = 0; i < golden_answers.size(); ++i) {
        EXPECT_TRUE(SameAnswer(result.queries[i].answer, golden_answers[i]))
            << "threads=" << threads << " run=" << run << " item=" << i;
      }
      EXPECT_EQ(result.total_stats.messages, golden_stats.messages);
      EXPECT_EQ(result.total_stats.bytes_on_wire, golden_stats.bytes_on_wire);
      EXPECT_EQ(result.total_stats.peers_visited, golden_stats.peers_visited);
    }
  }
}

}  // namespace
}  // namespace ripple
