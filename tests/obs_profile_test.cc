// Unit tests for the per-peer load profiler (obs/profile.h): skew math
// (Gini), aggregation, timers, the router hook, and — the load-bearing
// invariant — that the profiler's message/tuple charges mirror the
// QueryStats cost model exactly in both engines.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "geom/scoring.h"
#include "obs/profile.h"
#include "overlay/midas/midas.h"
#include "queries/skyline.h"
#include "queries/topk.h"
#include "queries/topk_driver.h"
#include "ripple/engine.h"
#include "sim/async_engine.h"

namespace ripple {
namespace {

// ---------------------------------------------------------------------------
// ComputeSkew

TEST(SkewTest, EmptyAndAllZeroLoads) {
  const obs::SkewStats empty = obs::ComputeSkew({});
  EXPECT_EQ(empty.peers, 0u);
  EXPECT_EQ(empty.total, 0u);
  EXPECT_DOUBLE_EQ(empty.gini, 0.0);

  const obs::SkewStats idle = obs::ComputeSkew({0, 0, 0});
  EXPECT_EQ(idle.peers, 3u);
  EXPECT_EQ(idle.active, 0u);
  EXPECT_DOUBLE_EQ(idle.idle_fraction, 1.0);
  EXPECT_DOUBLE_EQ(idle.gini, 0.0);
}

TEST(SkewTest, UniformLoadHasZeroGini) {
  const obs::SkewStats s = obs::ComputeSkew({5, 5, 5, 5});
  EXPECT_EQ(s.total, 20u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_EQ(s.max, 5u);
  EXPECT_DOUBLE_EQ(s.peak_to_mean, 1.0);
  EXPECT_NEAR(s.gini, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.idle_fraction, 0.0);
}

TEST(SkewTest, KnownGiniValue) {
  // Sorted ascending {1,2,3,4}: G = 2*(1*1+2*2+3*3+4*4)/(4*10) - 5/4
  //                               = 60/40 - 1.25 = 0.25.
  const obs::SkewStats s = obs::ComputeSkew({3, 1, 4, 2});
  EXPECT_NEAR(s.gini, 0.25, 1e-12);
  EXPECT_EQ(s.max, 4u);
  EXPECT_EQ(s.max_peer, 2u);
  EXPECT_DOUBLE_EQ(s.peak_to_mean, 4.0 / 2.5);
}

TEST(SkewTest, FullyConcentratedLoadApproachesOne) {
  // One of n peers holds everything: G = (n-1)/n.
  const obs::SkewStats s = obs::ComputeSkew({0, 0, 0, 12, 0, 0, 0, 0});
  EXPECT_NEAR(s.gini, 7.0 / 8.0, 1e-12);
  EXPECT_EQ(s.max_peer, 3u);
  EXPECT_DOUBLE_EQ(s.idle_fraction, 7.0 / 8.0);
}

// ---------------------------------------------------------------------------
// Profiler bookkeeping

TEST(ProfilerTest, TotalsTopNAndMerge) {
  obs::Profiler a;
  a.OnSpan(0);
  a.OnSpan(2);
  a.OnSpan(2);
  a.OnMessage(2, 0, 7);
  a.OnQueueDepth(2, 3);
  a.OnQueueDepth(2, 1);  // lower depth must not shrink the HWM

  const obs::PeerLoad totals = a.Totals();
  EXPECT_EQ(totals.spans, 3u);
  EXPECT_EQ(totals.messages_out, 1u);
  EXPECT_EQ(totals.messages_in, 1u);
  EXPECT_EQ(totals.tuples_out, 7u);
  EXPECT_EQ(totals.tuples_in, 7u);
  EXPECT_EQ(a.load(2).queue_depth_hwm, 3u);

  const std::vector<obs::Hotspot> top = a.TopN(&obs::PeerLoad::spans, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].peer, 2u);
  EXPECT_EQ(top[0].load.spans, 2u);
  EXPECT_EQ(top[1].peer, 0u);

  obs::Profiler b;
  b.OnSpan(5);
  b.OnMessage(5, 2, 1);
  b.Merge(a);
  EXPECT_EQ(b.Totals().spans, 4u);
  EXPECT_EQ(b.load(2).spans, 2u);
  EXPECT_EQ(b.load(2).messages_in, 1u);   // from b's own 5 -> 2 send
  EXPECT_EQ(b.load(2).messages_out, 1u);  // merged in from a's 2 -> 0 send
  EXPECT_EQ(b.peer_count(), 6u);
}

TEST(ProfilerTest, ScopedTimerChargesCpuAndNullIsSafe) {
  obs::Profiler p;
  {
    obs::ScopedTimer timer(&p, 4);
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) sink += i * 0.5;
  }
  EXPECT_GT(p.load(4).cpu_ns, 0u);
  {
    obs::ScopedTimer null_timer(nullptr, 4);  // must not crash
  }
  const uint64_t before = p.load(4).cpu_ns;
  EXPECT_EQ(p.load(4).cpu_ns, before);
}

TEST(ProfilerTest, RouteStepFeedsGlobalOnlyWhenEnabled) {
  ASSERT_FALSE(obs::Profiler::GlobalEnabled());
  obs::Profiler::Global().Clear();
  obs::RecordRouteStep(1, 2);
  EXPECT_EQ(obs::Profiler::Global().Totals().route_hops, 0u);

  obs::Profiler::EnableGlobal(true);
  obs::RecordRouteStep(1, 2);
  obs::RecordRouteStep(2, 3);
  obs::Profiler::EnableGlobal(false);
  const obs::PeerLoad totals = obs::Profiler::Global().Totals();
  EXPECT_EQ(totals.route_hops, 2u);
  // A route hop is also a message (charged at the sender).
  EXPECT_EQ(totals.messages_out, 2u);
  EXPECT_EQ(obs::Profiler::Global().load(1).route_hops, 1u);
  obs::Profiler::Global().Clear();
}

// ---------------------------------------------------------------------------
// The profiler <-> QueryStats invariant. Every message/tuple the engines
// charge to stats is charged once, at the same logical sender, in the
// profiler — so the sums must agree exactly, for every ripple setting.

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

TEST(ProfilerInvariantTest, EngineChargesMatchQueryStats) {
  Net net = MakeNet(96, 1500, 3, 904);
  LinearScorer scorer({-0.5, -0.3, -0.2});
  const TopKQuery q{&scorer, 10};
  Engine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  Rng rng(11);
  for (const RippleParam r :
       {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    obs::Profiler profiler;
    profiler.SetPeerUniverse(net.overlay.NumPeers());
    engine.SetSink(obs::Sink(nullptr, &profiler, nullptr));
    QueryStats sum;
    for (int trial = 0; trial < 4; ++trial) {
      const auto result = engine.Run({.initiator = net.overlay.RandomPeer(&rng),
                                      .query = q,
                                      .ripple = r});
      sum += result.stats;
    }
    const obs::PeerLoad totals = profiler.Totals();
    EXPECT_EQ(totals.spans, sum.peers_visited) << r;
    EXPECT_EQ(totals.messages_out, sum.messages) << r;
    EXPECT_EQ(totals.tuples_out, sum.tuples_shipped) << r;
    // Conservation: everything sent was received by a tracked peer.
    EXPECT_EQ(totals.messages_in, totals.messages_out) << r;
    EXPECT_EQ(totals.tuples_in, totals.tuples_out) << r;
  }
}

TEST(ProfilerInvariantTest, AsyncEngineChargesMatchQueryStats) {
  Net net = MakeNet(80, 1200, 3, 905);
  LinearScorer scorer({-0.4, -0.4, -0.2});
  const TopKQuery q{&scorer, 8};
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  Rng rng(13);
  for (const RippleParam r :
       {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    obs::Profiler profiler;
    profiler.SetPeerUniverse(net.overlay.NumPeers());
    engine.SetSink(obs::Sink(nullptr, &profiler, nullptr));
    QueryStats sum;
    for (int trial = 0; trial < 4; ++trial) {
      const auto result = engine.Run({.initiator = net.overlay.RandomPeer(&rng),
                                      .query = q,
                                      .ripple = r});
      sum += result.stats;
    }
    const obs::PeerLoad totals = profiler.Totals();
    EXPECT_EQ(totals.spans, sum.peers_visited) << r;
    EXPECT_EQ(totals.messages_out, sum.messages) << r;
    EXPECT_EQ(totals.tuples_out, sum.tuples_shipped) << r;
    EXPECT_EQ(totals.retransmissions, 0u) << r;  // perfect network
  }
  // A lossy, duplicating network (no crashes): retransmitted forwards and
  // answers, acks and replayed replies are charged at their sender in
  // both ledgers, so the totals still match.
  uint64_t retries = 0;
  uint64_t retransmissions = 0;
  for (const RippleParam r :
       {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    obs::Profiler profiler;
    profiler.SetPeerUniverse(net.overlay.NumPeers());
    engine.SetSink(obs::Sink(nullptr, &profiler, nullptr));
    QueryStats sum;
    for (int trial = 0; trial < 4; ++trial) {
      QueryRequest<TopKPolicy> req;
      req.initiator = net.overlay.RandomPeer(&rng);
      req.query = q;
      req.ripple = r;
      req.fault.loss_rate = 0.1;
      req.fault.dup_rate = 0.1;
      req.fault.seed = 100 + trial;
      req.retry.max_retries = 8;
      const auto result = engine.Run(req);
      sum += result.stats;
      retries += result.coverage.retries;
    }
    const obs::PeerLoad totals = profiler.Totals();
    EXPECT_EQ(totals.spans, sum.peers_visited) << r;
    EXPECT_EQ(totals.messages_out, sum.messages) << r;
    EXPECT_EQ(totals.tuples_out, sum.tuples_shipped) << r;
    EXPECT_EQ(totals.bytes_out, sum.bytes_on_wire) << r;
    retransmissions += totals.retransmissions;
  }
  // The loss actually bit: some frames were sent again.
  EXPECT_GT(retries, 0u);
  EXPECT_GT(retransmissions, 0u);
}

TEST(ProfilerInvariantTest, SkewMatchesVisitObserverShape) {
  // Profiler::Skew over the span column must equal ComputeSkew over the
  // dense per-peer visit vector it summarizes (the profiler is the only
  // per-peer visit count; bench_abl_load_skew reads its skew).
  Net net = MakeNet(64, 1000, 3, 906);
  LinearScorer scorer({-0.6, -0.2, -0.2});
  const TopKQuery q{&scorer, 5};
  Engine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  obs::Profiler profiler;
  profiler.SetPeerUniverse(net.overlay.NumPeers());
  engine.SetSink(obs::Sink(nullptr, &profiler, nullptr));
  Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    (void)SeededTopK(net.overlay, engine,
                     {.initiator = net.overlay.RandomPeer(&rng), .query = q});
  }
  std::vector<uint64_t> visits;
  for (const obs::PeerLoad& load : profiler.loads()) {
    visits.push_back(load.spans);
  }
  ASSERT_EQ(visits.size(), net.overlay.NumPeers());
  const obs::SkewStats skew = profiler.Skew(&obs::PeerLoad::spans);
  const obs::SkewStats direct = obs::ComputeSkew(visits);
  EXPECT_GT(skew.total, 0u);
  EXPECT_EQ(skew.total, direct.total);
  EXPECT_EQ(skew.active, direct.active);
  EXPECT_DOUBLE_EQ(skew.gini, direct.gini);
  EXPECT_EQ(skew.max, direct.max);
  EXPECT_EQ(skew.max_peer, direct.max_peer);
  EXPECT_DOUBLE_EQ(skew.mean, direct.mean);
}

}  // namespace
}  // namespace ripple
