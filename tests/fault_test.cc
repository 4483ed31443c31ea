// Fault-injection tests for the async execution layer: deterministic
// replay under a seed, exactness whenever faults do not destroy
// information (jitter, duplication), flagged-partial degradation when they
// do (loss, crashes, deadlines), and the net.* metrics recording.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "obs/metrics.h"
#include "overlay/midas/midas.h"
#include "queries/skyline.h"
#include "queries/topk.h"
#include "ripple/engine.h"
#include "sim/async_engine.h"
#include "store/local_algos.h"

namespace ripple {
namespace {

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
  Rng rng(seed ^ 0xfa17);
  net.all = data::MakeUniform(tuples, dims, &rng);
  for (const Tuple& t : net.all) net.overlay.InsertTuple(t);
  while (net.overlay.NumPeers() < peers) net.overlay.Join();
  return net;
}

std::vector<uint64_t> Ids(const TupleVec& v) {
  std::vector<uint64_t> ids;
  ids.reserve(v.size());
  for (const Tuple& t : v) ids.push_back(t.id);
  return ids;
}

// --- Determinism -------------------------------------------------------------

TEST(FaultTest, SameSeedReplaysTheExactSchedule) {
  Net net = MakeNet(64, 800, 3, 701);
  LinearScorer scorer({-0.5, -0.3, -0.2});
  Rng rng(3);
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  const QueryRequest<TopKPolicy> request{
      .initiator = net.overlay.RandomPeer(&rng),
      .query = TopKQuery{&scorer, 10},
      .ripple = RippleParam::Hops(2),
      .fault = {.loss_rate = 0.05,
                .dup_rate = 0.05,
                .delay_jitter = 0.3,
                .seed = 41}};
  const auto a = engine.Run(request);
  const auto b = engine.Run(request);
  EXPECT_EQ(Ids(a.answer), Ids(b.answer));
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.coverage.retries, b.coverage.retries);
  EXPECT_EQ(a.coverage.messages_lost, b.coverage.messages_lost);
  EXPECT_EQ(a.coverage.messages_duplicated, b.coverage.messages_duplicated);
  EXPECT_EQ(a.coverage.unreachable_peers, b.coverage.unreachable_peers);
}

TEST(FaultTest, DifferentSeedsDrawDifferentSchedules) {
  Net net = MakeNet(64, 800, 3, 703);
  LinearScorer scorer({-0.4, -0.4, -0.2});
  Rng rng(5);
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  QueryRequest<TopKPolicy> request{
      .initiator = net.overlay.RandomPeer(&rng),
      .query = TopKQuery{&scorer, 10},
      .fault = {.loss_rate = 0.1, .seed = 1}};
  std::set<uint64_t> losses;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    request.fault.seed = seed;
    losses.insert(engine.Run(request).coverage.messages_lost);
  }
  // Six seeds over a ~100-message query: the loss draws cannot all agree.
  EXPECT_GT(losses.size(), 1u);
}

// --- Faults that preserve exactness ------------------------------------------

TEST(FaultTest, JitterAloneNeverChangesTheAnswer) {
  Net net = MakeNet(64, 800, 3, 707);
  LinearScorer scorer({-0.3, -0.3, -0.4});
  TopKQuery q{&scorer, 10};
  Rng rng(7);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  Engine<MidasOverlay, TopKPolicy> sync_engine(&net.overlay, TopKPolicy{});
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  const auto want =
      sync_engine.Run({.initiator = initiator, .query = q,
                       .ripple = RippleParam::Slow()});
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto got = engine.Run({.initiator = initiator,
                                 .query = q,
                                 .ripple = RippleParam::Slow(),
                                 .fault = {.delay_jitter = 0.8,
                                           .seed = seed}});
    EXPECT_TRUE(got.complete);
    EXPECT_EQ(Ids(got.answer), Ids(want.answer)) << "seed=" << seed;
    EXPECT_EQ(got.coverage.messages_lost, 0u);
  }
}

TEST(FaultTest, DuplicationIsSuppressedNotDoubleCounted) {
  Net net = MakeNet(64, 800, 3, 709);
  LinearScorer scorer({-0.5, -0.2, -0.3});
  TopKQuery q{&scorer, 10};
  Rng rng(9);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  Engine<MidasOverlay, TopKPolicy> sync_engine(&net.overlay, TopKPolicy{});
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  for (const RippleParam r :
       {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    const auto want =
        sync_engine.Run({.initiator = initiator, .query = q, .ripple = r});
    // Every single message duplicated: the dedup windows and the answer
    // settlement flags must absorb all of it.
    const auto got = engine.Run({.initiator = initiator,
                                 .query = q,
                                 .ripple = r,
                                 .fault = {.dup_rate = 1.0, .seed = 5}});
    EXPECT_TRUE(got.complete) << r;
    EXPECT_EQ(Ids(got.answer), Ids(want.answer)) << r;
    EXPECT_GT(got.coverage.messages_duplicated, 0u) << r;
    EXPECT_GT(got.coverage.duplicates_suppressed, 0u) << r;
    // No duplicate query ever opens a second session.
    EXPECT_EQ(got.stats.peers_visited, want.stats.peers_visited) << r;
  }
}

TEST(FaultTest, SkylineSurvivesDuplicationExactly) {
  Net net = MakeNet(48, 600, 3, 711);
  Rng rng(11);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  Engine<MidasOverlay, SkylinePolicy> sync_engine(&net.overlay,
                                                  SkylinePolicy{});
  AsyncEngine<MidasOverlay, SkylinePolicy> engine(&net.overlay,
                                                  SkylinePolicy{});
  auto want = sync_engine.Run({.initiator = initiator,
                               .query = SkylineQuery{}});
  auto got = engine.Run({.initiator = initiator,
                         .query = SkylineQuery{},
                         .fault = {.dup_rate = 0.5, .seed = 13}});
  std::sort(want.answer.begin(), want.answer.end(), TupleIdLess());
  std::sort(got.answer.begin(), got.answer.end(), TupleIdLess());
  EXPECT_TRUE(got.complete);
  EXPECT_EQ(Ids(got.answer), Ids(want.answer));
}

// --- Faults that degrade: loss, crashes, deadlines ---------------------------

TEST(FaultTest, LossGivesExactOrFlaggedPartialNeverSilentlyWrong) {
  Net net = MakeNet(64, 800, 3, 713);
  LinearScorer scorer({-0.4, -0.3, -0.3});
  TopKQuery q{&scorer, 10};
  Rng rng(13);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  Engine<MidasOverlay, TopKPolicy> sync_engine(&net.overlay, TopKPolicy{});
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  const auto want = sync_engine.Run({.initiator = initiator, .query = q});
  int complete_runs = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const auto got = engine.Run({.initiator = initiator,
                                 .query = q,
                                 .fault = {.loss_rate = 0.1, .seed = seed}});
    EXPECT_EQ(got.complete, got.coverage.complete()) << "seed=" << seed;
    if (got.complete) {
      ++complete_runs;
      EXPECT_EQ(Ids(got.answer), Ids(want.answer)) << "seed=" << seed;
    } else {
      // Degraded runs must say what they gave up on.
      EXPECT_TRUE(got.coverage.links_unresolved > 0 ||
                  got.coverage.answers_lost > 0)
          << "seed=" << seed;
    }
    // Retransmission has to have fired for 10% loss on this many messages
    // ... unless the network happened to only drop answers' duplicates.
    EXPECT_GT(got.coverage.messages_lost + got.coverage.retries, 0u);
  }
  // The retry layer should rescue most 10%-loss runs outright.
  EXPECT_GT(complete_runs, 0);
}

TEST(FaultTest, ExplicitCrashOfEveryChildFlagsThePartialAnswer) {
  Net net = MakeNet(16, 300, 2, 717);
  LinearScorer scorer({-0.6, -0.4});
  TopKQuery q{&scorer, 5};
  Rng rng(17);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  net::FaultOptions fault;
  // Everyone but the initiator crashes almost immediately: every forwarded
  // link must exhaust its retries and be folded out.
  for (PeerId p = 0; p < net.overlay.NumPeers(); ++p) {
    if (p != initiator) fault.crashes.push_back({.peer = p, .at = 0.5});
  }
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  const auto got = engine.Run({.initiator = initiator,
                               .query = q,
                               .retry = {.timeout = 4.0, .max_retries = 2},
                               .fault = fault});
  EXPECT_FALSE(got.complete);
  EXPECT_GT(got.coverage.links_unresolved, 0u);
  EXPECT_FALSE(got.coverage.unreachable_peers.empty());
  EXPECT_FALSE(got.coverage.crashed_peers.empty());
  EXPECT_GT(got.coverage.timeouts, 0u);
  // What survives is the initiator's own contribution: a sound local
  // answer over its store, still ranked correctly.
  const auto& peer = net.overlay.GetPeer(initiator);
  EXPECT_LE(got.answer.size(), peer.store.size());
}

TEST(FaultTest, RandomCrashesTerminateWithinTheRetryBudget) {
  Net net = MakeNet(64, 800, 3, 719);
  LinearScorer scorer({-0.2, -0.4, -0.4});
  TopKQuery q{&scorer, 10};
  Rng rng(19);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  Engine<MidasOverlay, TopKPolicy> sync_engine(&net.overlay, TopKPolicy{});
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  const auto want = sync_engine.Run({.initiator = initiator, .query = q,
                                     .ripple = RippleParam::Hops(1)});
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const auto got = engine.Run({.initiator = initiator,
                                 .query = q,
                                 .ripple = RippleParam::Hops(1),
                                 .retry = {.timeout = 8.0, .max_retries = 2},
                                 .fault = {.crash_rate = 0.05,
                                           .crash_window = 16.0,
                                           .seed = seed}});
    EXPECT_EQ(got.complete, got.coverage.complete()) << "seed=" << seed;
    if (got.complete) {
      EXPECT_EQ(Ids(got.answer), Ids(want.answer)) << "seed=" << seed;
    } else {
      EXPECT_FALSE(got.coverage.crashed_peers.empty()) << "seed=" << seed;
    }
  }
}

TEST(FaultTest, DeadlineCutsTheRunAndFlagsIt) {
  Net net = MakeNet(96, 1000, 3, 723);
  LinearScorer scorer({-0.3, -0.3, -0.4});
  // k = 300 over ~10 tuples/peer: no pruning until dozens of peers have
  // been folded in, so the sequential slow walk needs far more than 10
  // units of simulated time and the deadline must cut it.
  TopKQuery q{&scorer, 300};
  Rng rng(23);
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  const auto got = engine.Run({.initiator = net.overlay.RandomPeer(&rng),
                               .query = q,
                               .ripple = RippleParam::Slow(),
                               .deadline = 10.0,
                               .fault = {.delay_jitter = 0.01, .seed = 29}});
  EXPECT_FALSE(got.complete);
  EXPECT_LE(got.completion_time, 10.0 + 1e-9);
}

// --- Metrics recording -------------------------------------------------------

TEST(FaultTest, CoverageLandsInTheGlobalRegistry) {
  Net net = MakeNet(48, 600, 3, 727);
  LinearScorer scorer({-0.5, -0.25, -0.25});
  TopKQuery q{&scorer, 8};
  Rng rng(29);
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  obs::Registry& reg = obs::Registry::Global();
  const uint64_t lost_before = reg.GetCounter("net.loss.count").value();
  const uint64_t runs_before =
      reg.GetCounter("net.query.complete").value() +
      reg.GetCounter("net.query.partial").value();
  obs::Registry::EnableGlobal(true);
  (void)engine.Run({.initiator = net.overlay.RandomPeer(&rng),
                    .query = q,
                    .fault = {.loss_rate = 0.2, .seed = 31}});
  obs::Registry::EnableGlobal(false);
  EXPECT_GT(reg.GetCounter("net.loss.count").value(), lost_before);
  EXPECT_EQ(reg.GetCounter("net.query.complete").value() +
                reg.GetCounter("net.query.partial").value(),
            runs_before + 1);
}

TEST(FaultTest, DisabledRegistryStaysUntouched) {
  Net net = MakeNet(32, 400, 2, 731);
  LinearScorer scorer({-0.5, -0.5});
  TopKQuery q{&scorer, 5};
  Rng rng(31);
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  obs::Registry& reg = obs::Registry::Global();
  const uint64_t lost_before = reg.GetCounter("net.loss.count").value();
  ASSERT_FALSE(obs::Registry::GlobalEnabled());
  (void)engine.Run({.initiator = net.overlay.RandomPeer(&rng),
                    .query = q,
                    .fault = {.loss_rate = 0.2, .seed = 37}});
  EXPECT_EQ(reg.GetCounter("net.loss.count").value(), lost_before);
}

}  // namespace
}  // namespace ripple
