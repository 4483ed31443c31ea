#include <gtest/gtest.h>

#include "baselines/dsl.h"
#include "baselines/ssp.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "obs/metrics.h"
#include "oracle/oracle.h"
#include "overlay/baton/baton.h"
#include "overlay/can/can.h"
#include "overlay/chord/chord.h"
#include "overlay/midas/midas.h"
#include "queries/skyband.h"
#include "queries/skyline.h"
#include "ripple/engine.h"
#include "shape_hash.h"
#include "sim/async_engine.h"
#include "store/local_algos.h"

namespace ripple {
namespace {

using SkyEngine = Engine<MidasOverlay, SkylinePolicy>;

struct Net {
  MidasOverlay overlay;
  TupleVec all;
};

Net MakeNet(size_t peers, const TupleVec& tuples, int dims, uint64_t seed,
            bool patterns = false) {
  MidasOptions opt;
  opt.dims = dims;
  opt.seed = seed;
  opt.border_pattern_links = patterns;
  Net net{MidasOverlay(opt), tuples};
  while (net.overlay.NumPeers() < peers) net.overlay.Join();
  for (const Tuple& t : tuples) net.overlay.InsertTuple(t);
  return net;
}

void ExpectSameSet(TupleVec got, TupleVec want) {
  std::sort(got.begin(), got.end(), TupleIdLess());
  std::sort(want.begin(), want.end(), TupleIdLess());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "position " << i;
  }
}

TEST(EngineSkylineTest, MatchesOracleOnUniformData) {
  Rng rng(201);
  const TupleVec tuples = data::MakeUniform(1500, 3, &rng);
  Net net = MakeNet(128, tuples, 3, 301);
  const TupleVec want = ComputeSkyline(tuples);
  SkyEngine engine(&net.overlay, SkylinePolicy{});
  Rng pick(7);
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Hops(3), RippleParam::Slow()}) {
    const auto result =
        engine.Run({.initiator = net.overlay.RandomPeer(&pick), .query = SkylineQuery{}, .ripple = r});
    ExpectSameSet(result.answer, want);
  }
}

TEST(EngineSkylineTest, MatchesOracleOnCorrelatedAndAnticorrelated) {
  Rng rng(203);
  for (const char* name : {"correlated", "anticorrelated"}) {
    const TupleVec tuples = data::MakeByName(name, 800, 4, &rng);
    Net net = MakeNet(64, tuples, 4, 303);
    const TupleVec want = ComputeSkyline(tuples);
    SkyEngine engine(&net.overlay, SkylinePolicy{});
    Rng pick(11);
    const auto fast =
        engine.Run({.initiator = net.overlay.RandomPeer(&pick), .query = SkylineQuery{}});
    ExpectSameSet(fast.answer, want);
    const auto slow = engine.Run({.initiator = net.overlay.RandomPeer(&pick), .query = SkylineQuery{}, .ripple = RippleParam::Slow()});
    ExpectSameSet(slow.answer, want);
  }
}

TEST(EngineSkylineTest, MatchesOracleOnNbaLikeData) {
  Rng rng(205);
  const TupleVec tuples = data::MakeNbaLike(2000, 6, &rng);
  Net net = MakeNet(128, tuples, 6, 307);
  const TupleVec want = ComputeSkyline(tuples);
  SkyEngine engine(&net.overlay, SkylinePolicy{});
  Rng pick(13);
  const auto result =
      engine.Run({.initiator = net.overlay.RandomPeer(&pick), .query = SkylineQuery{}});
  ExpectSameSet(result.answer, want);
}

TEST(EngineSkylineTest, BorderPatternOptimizationPreservesAnswer) {
  Rng rng(207);
  const TupleVec tuples = data::MakeUniform(1000, 2, &rng);
  Net plain = MakeNet(128, tuples, 2, 311, /*patterns=*/false);
  Net optimized = MakeNet(128, tuples, 2, 311, /*patterns=*/true);
  const TupleVec want = ComputeSkyline(tuples);
  SkyEngine e1(&plain.overlay, SkylinePolicy{});
  SkyEngine e2(&optimized.overlay, SkylinePolicy{});
  Rng pick(17);
  const PeerId p1 = plain.overlay.RandomPeer(&pick);
  const PeerId p2 = optimized.overlay.RandomPeer(&pick);
  ExpectSameSet(e1.Run({.initiator = p1, .query = SkylineQuery{}}).answer, want);
  ExpectSameSet(e2.Run({.initiator = p2, .query = SkylineQuery{}}).answer, want);
}

TEST(EngineSkylineTest, SlowVisitsFewerPeersAtHigherLatency) {
  // The paper's skyline claim (Figures 7-8): ripple-slow consumes the
  // least network resources (congestion = peers visited) while ripple-fast
  // wins on latency.
  Rng rng(209);
  const TupleVec tuples = data::MakeUniform(3000, 3, &rng);
  Net net = MakeNet(256, tuples, 3, 313);
  SkyEngine engine(&net.overlay, SkylinePolicy{});
  Rng pick(19);
  uint64_t fast_visits = 0, slow_visits = 0;
  uint64_t fast_latency = 0, slow_latency = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const PeerId initiator = net.overlay.RandomPeer(&pick);
    const auto fast = engine.Run({.initiator = initiator, .query = SkylineQuery{}});
    const auto slow = engine.Run({.initiator = initiator, .query = SkylineQuery{}, .ripple = RippleParam::Slow()});
    fast_visits += fast.stats.peers_visited;
    slow_visits += slow.stats.peers_visited;
    fast_latency += fast.stats.latency_hops;
    slow_latency += slow.stats.latency_hops;
  }
  EXPECT_LT(slow_visits, fast_visits);
  EXPECT_GT(slow_latency, fast_latency);
}

TEST(EngineSkylineTest, PrunedRunVisitsFewPeersOnCorrelatedData) {
  // On correlated data the skyline is tiny and most of the domain is
  // dominated: slow should visit a small fraction of the network.
  Rng rng(211);
  const TupleVec tuples = data::MakeCorrelated(3000, 3, &rng);
  Net net = MakeNet(256, tuples, 3, 317);
  SkyEngine engine(&net.overlay, SkylinePolicy{});
  Rng pick(23);
  const auto result = engine.Run({.initiator = net.overlay.RandomPeer(&pick), .query = SkylineQuery{}, .ripple = RippleParam::Slow()});
  EXPECT_LT(result.stats.peers_visited, net.overlay.NumPeers() / 2);
}

TEST(EngineSkylineTest, SurvivesChurn) {
  Rng rng(213);
  const TupleVec tuples = data::MakeUniform(1200, 3, &rng);
  Net net = MakeNet(128, tuples, 3, 319);
  const TupleVec want = ComputeSkyline(tuples);
  Rng churn(29);
  while (net.overlay.NumPeers() > 24) {
    ASSERT_TRUE(net.overlay.LeaveRandom(&churn).ok());
  }
  SkyEngine engine(&net.overlay, SkylinePolicy{});
  ExpectSameSet(
      engine.Run({.initiator = net.overlay.RandomPeer(&churn), .query = SkylineQuery{}}).answer,
      want);
}

TEST(EngineSkylineTest, SingleTupleNetwork) {
  TupleVec tuples = {Tuple{7, Point{0.5, 0.5}}};
  Net net = MakeNet(16, tuples, 2, 323);
  SkyEngine engine(&net.overlay, SkylinePolicy{});
  Rng pick(31);
  const auto result =
      engine.Run({.initiator = net.overlay.RandomPeer(&pick), .query = SkylineQuery{}});
  ASSERT_EQ(result.answer.size(), 1u);
  EXPECT_EQ(result.answer[0].id, 7u);
}

// --- Floating-point sum ties, distributed ------------------------------------
// a = (0.5, 1e-17) dominates b = (0.5, 2e-17), which dominates c = (0.5,
// 3e-17), yet all three coordinate sums round to 0.5, and the ids run
// against the dominance order. The three land on one peer in every overlay,
// so that peer's local skyline and skyband must see through the tie.

TupleVec SumTieNetworkTuples() {
  Rng rng(215);
  TupleVec tuples = data::MakeUniform(600, 2, &rng);
  tuples.push_back(Tuple{1002, Point{0.5, 1e-17}});
  tuples.push_back(Tuple{1001, Point{0.5, 2e-17}});
  tuples.push_back(Tuple{1000, Point{0.5, 3e-17}});
  return tuples;
}

template <typename Overlay>
void ExpectTieAnswersMatchOracle(const Overlay& overlay,
                                 const TupleVec& tuples) {
  const TupleVec sky = oracle::Skyline(tuples);
  ASSERT_EQ(std::count_if(sky.begin(), sky.end(),
                          [](const Tuple& t) { return t.id >= 1000; }),
            1);
  Engine<Overlay, SkylinePolicy> skyline(&overlay, SkylinePolicy{});
  Engine<Overlay, SkybandPolicy> skyband(&overlay, SkybandPolicy{});
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Slow()}) {
    ExpectSameSet(
        skyline.Run({.initiator = 0, .query = SkylineQuery{}, .ripple = r})
            .answer,
        sky);
    for (size_t band : {1u, 2u}) {
      SkybandQuery q;
      q.band = band;
      ExpectSameSet(
          skyband.Run({.initiator = 0, .query = q, .ripple = r}).answer,
          oracle::Skyband(tuples, band));
    }
  }
}

TEST(SumTieTest, MidasSkylineAndSkybandSeeThroughTies) {
  const TupleVec tuples = SumTieNetworkTuples();
  Net net = MakeNet(64, tuples, 2, 317);
  ExpectTieAnswersMatchOracle(net.overlay, tuples);
}

TEST(SumTieTest, ChordSkylineAndSkybandSeeThroughTies) {
  const TupleVec tuples = SumTieNetworkTuples();
  ChordOverlay overlay(64, ChordOptions{.dims = 2, .seed = 319});
  for (const Tuple& t : tuples) overlay.InsertTuple(t);
  ExpectTieAnswersMatchOracle(overlay, tuples);
}

TEST(SumTieTest, DslOverCanSeesThroughTies) {
  const TupleVec tuples = SumTieNetworkTuples();
  CanOverlay overlay(CanOptions{.dims = 2, .seed = 321});
  while (overlay.NumPeers() < 64) overlay.Join();
  for (const Tuple& t : tuples) overlay.InsertTuple(t);
  ExpectSameSet(RunDslSkyline(overlay, 0).skyline, oracle::Skyline(tuples));
}

TEST(SumTieTest, SspOverBatonSeesThroughTies) {
  const TupleVec tuples = SumTieNetworkTuples();
  BatonOverlay overlay(64, BatonOptions{.dims = 2});
  for (const Tuple& t : tuples) overlay.InsertTuple(t);
  ExpectSameSet(RunSspSkyline(overlay, 0).skyline, oracle::Skyline(tuples));
}

// --- Pinned runs of the skyline family ---------------------------------------
// Answers, costs and skyline kernel work of fixed runs on both engines.
// Every state merge of the family goes through one band merge; a change to
// it that moves an answer, a message, a byte or a skyline's counted work
// shows as a changed constant here.

void MixRun(const TupleVec& answer, const QueryStats& stats, ShapeHash* h) {
  std::vector<uint64_t> ids;
  for (const Tuple& t : answer) ids.push_back(t.id);
  h->Mix(ids);
  h->Mix(stats.messages);
  h->Mix(stats.tuples_shipped);
  h->Mix(stats.bytes_on_wire);
  h->Mix(stats.peers_visited);
  h->Mix(stats.latency_hops);
}

struct RunPin {
  uint64_t hash = 0;            // answer ids and stats of every run
  uint64_t dominance_cmps = 0;  // kernel.* totals over the runs
  uint64_t tuples_scanned = 0;
};

uint64_t GlobalCounter(const char* name) {
  return obs::Registry::Global().GetCounter(name).value();
}

/// Runs `q` from `initiator` at r = fast, 2 and slow on the recursive
/// engine and the fault-free async engine.
template <typename Policy, typename Overlay>
RunPin PinRuns(const Overlay& overlay, const typename Policy::Query& q,
               PeerId initiator) {
  Engine<Overlay, Policy> sync(&overlay, Policy{});
  AsyncEngine<Overlay, Policy> async(&overlay, Policy{});
  obs::Registry::EnableGlobal(true);
  const uint64_t cmps = GlobalCounter("kernel.dominance_cmps");
  const uint64_t scanned = GlobalCounter("kernel.tuples_scanned");
  ShapeHash h;
  for (const RippleParam r :
       {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    const QueryRequest<Policy> req{
        .initiator = initiator, .query = q, .ripple = r};
    const auto s = sync.Run(req);
    MixRun(s.answer, s.stats, &h);
    const auto a = async.Run(req);
    MixRun(a.answer, a.stats, &h);
  }
  RunPin pin;
  pin.hash = h.value();
  pin.dominance_cmps = GlobalCounter("kernel.dominance_cmps") - cmps;
  pin.tuples_scanned = GlobalCounter("kernel.tuples_scanned") - scanned;
  obs::Registry::EnableGlobal(false);
  return pin;
}

/// The skyline (plain and boxed) and skyband (bands 2 and 3) pins of one
/// overlay, in that order. Skyband pins carry no kernel totals.
template <typename Overlay>
std::vector<RunPin> PinFamily(const Overlay& overlay, int dims,
                              PeerId initiator) {
  SkylineQuery boxed;
  Point lo(dims), hi(dims);
  lo.Fill(0.1);
  hi.Fill(0.85);
  boxed.constraint = Rect(lo, hi);
  std::vector<RunPin> pins;
  pins.push_back(PinRuns<SkylinePolicy>(overlay, SkylineQuery{}, initiator));
  pins.push_back(PinRuns<SkylinePolicy>(overlay, boxed, initiator));
  for (size_t band : {2u, 3u}) {
    RunPin pin = PinRuns<SkybandPolicy>(
        overlay, SkybandQuery{.band = band}, initiator);
    pin.dominance_cmps = pin.tuples_scanned = 0;
    pins.push_back(pin);
  }
  return pins;
}

void ExpectPins(const std::vector<RunPin>& got,
                const std::vector<RunPin>& want, const char* overlay) {
  static const char* const kQueries[] = {"skyline", "skyline-box",
                                         "skyband-2", "skyband-3"};
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].hash, want[i].hash)
        << overlay << " " << kQueries[i] << ": 0x" << std::hex << got[i].hash;
    EXPECT_EQ(got[i].dominance_cmps, want[i].dominance_cmps)
        << overlay << " " << kQueries[i];
    EXPECT_EQ(got[i].tuples_scanned, want[i].tuples_scanned)
        << overlay << " " << kQueries[i];
  }
}

Net MakeMedianNet(size_t peers, size_t tuples, int dims, uint64_t seed) {
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

TEST(BandFamilyPinTest, MidasMedianDims2) {
  const Net net = MakeMedianNet(128, 2000, 2, 331);
  ExpectPins(PinFamily(net.overlay, 2, 17),
             {{0xa63ce0cfc3473b29ull, 16670, 6587},
              {0xf8e6299af87330d3ull, 8526, 5070},
              {0x4e905b0000e372f6ull, 0, 0},
              {0x9925dc25a0adaec7ull, 0, 0}},
             "midas-2");
}

TEST(BandFamilyPinTest, MidasMedianDims4) {
  const Net net = MakeMedianNet(128, 2000, 4, 333);
  ExpectPins(PinFamily(net.overlay, 4, 41),
             {{0xd58f9537fe65938cull, 558328, 68161},
              {0x1c5903b2520732e9ull, 250570, 47648},
              {0x5860a11c69baece3ull, 0, 0},
              {0xe1b7d9ffe343f393ull, 0, 0}},
             "midas-4");
}

TEST(BandFamilyPinTest, ChordDims2) {
  Rng rng(335);
  ChordOverlay overlay(64, ChordOptions{.dims = 2, .seed = 337});
  for (const Tuple& t : data::MakeUniform(1500, 2, &rng)) {
    overlay.InsertTuple(t);
  }
  ExpectPins(PinFamily(overlay, 2, 5),
             {{0x0d85f4117c33347aull, 15608, 5549},
              {0x5a9d912fb7384941ull, 12192, 4941},
              {0x63d8a0663d43997eull, 0, 0},
              {0x54f078cfde4e36beull, 0, 0}},
             "chord-2");
}

uint64_t BaselineHash(const TupleVec& skyline, const QueryStats& stats) {
  ShapeHash h;
  MixRun(skyline, stats, &h);
  return h.value();
}

TEST(BandFamilyPinTest, DslOverCan) {
  Rng rng(339);
  CanOverlay overlay(CanOptions{.dims = 3, .seed = 341});
  while (overlay.NumPeers() < 96) overlay.Join();
  for (const Tuple& t : data::MakeUniform(2000, 3, &rng)) {
    overlay.InsertTuple(t);
  }
  const uint64_t want[] = {0x2c0723d998890dfbull, 0x1b85c9bf789df238ull};
  const PeerId initiators[] = {0, 57};
  for (size_t i = 0; i < 2; ++i) {
    const DslResult got = RunDslSkyline(overlay, initiators[i]);
    EXPECT_EQ(BaselineHash(got.skyline, got.stats), want[i])
        << "initiator " << initiators[i] << ": 0x" << std::hex
        << BaselineHash(got.skyline, got.stats);
  }
}

TEST(BandFamilyPinTest, SspOverBaton) {
  Rng rng(343);
  BatonOverlay overlay(96, BatonOptions{.dims = 3});
  for (const Tuple& t : data::MakeUniform(2000, 3, &rng)) {
    overlay.InsertTuple(t);
  }
  const uint64_t want[] = {0xe4da130c42fd301full, 0x00662725103b2747ull};
  const PeerId initiators[] = {0, 57};
  for (size_t i = 0; i < 2; ++i) {
    const SspResult got = RunSspSkyline(overlay, initiators[i]);
    EXPECT_EQ(BaselineHash(got.skyline, got.stats), want[i])
        << "initiator " << initiators[i] << ": 0x" << std::hex
        << BaselineHash(got.skyline, got.stats);
  }
}

}  // namespace
}  // namespace ripple
