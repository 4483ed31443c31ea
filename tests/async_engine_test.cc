#include "sim/async_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "overlay/midas/midas.h"
#include "queries/range.h"
#include "queries/skyband.h"
#include "queries/skyline.h"
#include "queries/topk.h"
#include "ripple/engine.h"
#include "ripple/peer_core.h"
#include "ripple/timer_queue.h"

namespace ripple {
namespace {

// --- TimerQueue: the event queue both drivers run ----------------------------

constexpr double kForever = std::numeric_limits<double>::infinity();

TEST(TimerQueueTest, FiresInTimestampOrder) {
  TimerQueue q;
  std::vector<int> order;
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(2.0, [&] { order.push_back(2); });
  EXPECT_DOUBLE_EQ(q.NextAt(), 1.0);
  q.RunDue(kForever);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerQueueTest, TiesAreFifo) {
  TimerQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.RunDue(kForever);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimerQueueTest, EventsMayScheduleEvents) {
  // Run on virtual time the way the async engine runs it: the clock jumps
  // to each event as it pops.
  TimerQueue q;
  double now = 0;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) q.Schedule(now + 1.0, chain);
  };
  q.Schedule(0.0, chain);
  TimerQueue::Event e;
  size_t fired = 0;
  while (q.PopDue(kForever, &e)) {
    now = e.at;
    ++fired;
    e.fn();
  }
  EXPECT_DOUBLE_EQ(now, 9.0);
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(fired, 10u);
}

TEST(TimerQueueTest, ClockOnlyMovesForward) {
  TimerQueue q;
  std::vector<double> times;
  q.Schedule(5.0, [] {});
  q.Schedule(2.0, [&] { q.Schedule(2.5, [] {}); });
  TimerQueue::Event e;
  EXPECT_FALSE(q.PopDue(1.0, &e));  // nothing due yet
  while (q.PopDue(kForever, &e)) {
    times.push_back(e.at);
    e.fn();
  }
  EXPECT_EQ(times, (std::vector<double>{2.0, 2.5, 5.0}));
}

TEST(TimerQueueTest, StaleHandleOfFiredTimerIsNoOp) {
  TimerQueue q;
  std::vector<int> fired;
  const uint64_t a = q.Arm(1.0, [&] { fired.push_back(1); });
  q.RunDue(1.0);
  // The next timer takes the fired one's slot; the old handle must miss it.
  const uint64_t b = q.Arm(2.0, [&] { fired.push_back(2); });
  EXPECT_NE(a, b);
  q.Cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.RunDue(kForever);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(TimerQueueTest, StaleHandleOfCancelledTimerSparesItsSlotsNextTimer) {
  TimerQueue q;
  std::vector<int> fired;
  const uint64_t a = q.Arm(1.0, [&] { fired.push_back(1); });
  q.Cancel(a);
  // Surfacing the cancelled entry recycles its slot for the next timer.
  EXPECT_TRUE(std::isinf(q.NextAt()));
  const uint64_t b = q.Arm(2.0, [&] { fired.push_back(2); });
  EXPECT_NE(a, b);
  q.Cancel(a);
  q.Cancel(0);  // the null handle names nothing either
  EXPECT_EQ(q.pending(), 1u);
  q.RunDue(kForever);
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(TimerQueueTest, PendingIsExactThroughArmCancelAndFire) {
  TimerQueue q;
  std::vector<uint64_t> h;
  for (int i = 0; i < 6; ++i) h.push_back(q.Arm(1.0 + i, [] {}));
  q.Schedule(0.5, [] {});  // plain events are never pending
  EXPECT_EQ(q.pending(), 6u);
  q.Cancel(h[1]);
  q.Cancel(h[1]);
  q.Cancel(h[4]);
  EXPECT_EQ(q.pending(), 4u);
  q.RunDue(3.0);  // the event, then h[0] and h[2]; h[1] is skipped
  EXPECT_EQ(q.pending(), 2u);
  q.Cancel(h[0]);  // already fired
  q.Cancel(h[3]);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_DOUBLE_EQ(q.NextAt(), 6.0);
  q.RunDue(kForever);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(std::isinf(q.NextAt()));
}

TEST(TimerQueueTest, ScheduledEventsAndTimersTieInFifoOrder) {
  TimerQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] { order.push_back(0); });
  q.Arm(1.0, [&] { order.push_back(1); });
  const uint64_t gone = q.Arm(1.0, [&] { order.push_back(-1); });
  q.Schedule(1.0, [&] { order.push_back(2); });
  q.Arm(1.0, [&] { order.push_back(3); });
  q.Cancel(gone);
  q.Schedule(0.0, [&] {
    // Queued later but due at the same time: after everything above.
    q.Arm(1.0, [&] { order.push_back(5); });
    q.Schedule(1.0, [&] { order.push_back(4); });
  });
  q.RunDue(kForever);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 5, 4}));
}

// --- Async engine cross-validation ---------------------------------------------

struct Net {
  MidasOverlay overlay;
  TupleVec all;
};

/// `first_id` re-bases the tuple ids, so a net can place them across a
/// varint width boundary.
Net MakeNet(size_t peers, size_t tuples, int dims, uint64_t seed,
            uint64_t first_id = 0) {
  MidasOptions opt;
  opt.dims = dims;
  opt.seed = seed;
  opt.split_rule = MidasSplitRule::kDataMedian;
  Net net{MidasOverlay(opt), {}};
  Rng rng(seed ^ 0xabc);
  net.all = data::MakeUniform(tuples, dims, &rng);
  for (Tuple& t : net.all) t.id += first_id;
  for (const Tuple& t : net.all) net.overlay.InsertTuple(t);
  while (net.overlay.NumPeers() < peers) net.overlay.Join();
  return net;
}

template <typename Policy, typename Query>
void CrossValidate(const Net& net, const Query& q, RippleParam r,
                   PeerId initiator) {
  Engine<MidasOverlay, Policy> sync_engine(&net.overlay, Policy{});
  AsyncEngine<MidasOverlay, Policy> async_engine(&net.overlay, Policy{});
  const auto sync = sync_engine.Run({.initiator = initiator, .query = q, .ripple = r});
  const auto async = async_engine.Run({.initiator = initiator, .query = q, .ripple = r});
  // Identical answers.
  ASSERT_EQ(async.answer.size(), sync.answer.size()) << "r=" << r;
  for (size_t i = 0; i < sync.answer.size(); ++i) {
    EXPECT_EQ(async.answer[i].id, sync.answer[i].id);
  }
  // Identical work — including the encoded bytes both engines charge
  // through the shared WireCodec.
  EXPECT_EQ(async.stats.peers_visited, sync.stats.peers_visited);
  EXPECT_EQ(async.stats.messages, sync.stats.messages);
  EXPECT_EQ(async.stats.tuples_shipped, sync.stats.tuples_shipped);
  EXPECT_EQ(async.stats.bytes_on_wire, sync.stats.bytes_on_wire);
  EXPECT_GT(async.stats.bytes_on_wire, 0u);
  // Message time covers at least the forward hops the lemmas count.
  EXPECT_GE(async.completion_time,
            static_cast<double>(sync.stats.latency_hops));
}

TEST(AsyncEngineTest, TopKMatchesRecursiveEngine) {
  Net net = MakeNet(96, 1000, 3, 601);
  LinearScorer scorer({-0.5, -0.3, -0.2});
  TopKQuery q{&scorer, 10};
  Rng rng(5);
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Hops(1), RippleParam::Hops(3), RippleParam::Slow()}) {
    CrossValidate<TopKPolicy>(net, q, r, net.overlay.RandomPeer(&rng));
  }
}

TEST(AsyncEngineTest, SkylineMatchesRecursiveEngine) {
  Net net = MakeNet(64, 800, 3, 603);
  Rng rng(7);
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    CrossValidate<SkylinePolicy>(net, SkylineQuery{}, r,
                                 net.overlay.RandomPeer(&rng));
  }
}

TEST(AsyncEngineTest, RangeMatchesRecursiveEngine) {
  Net net = MakeNet(64, 900, 2, 607);
  Rng rng(11);
  RangeQuery q{Point{0.4, 0.6}, 0.15, Norm::kL2};
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Slow()}) {
    CrossValidate<RangePolicy>(net, q, r, net.overlay.RandomPeer(&rng));
  }
}

TEST(AsyncEngineTest, SkybandMatchesRecursiveEngine) {
  Net net = MakeNet(64, 800, 3, 619);
  Rng rng(23);
  for (const RippleParam r :
       {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    CrossValidate<SkybandPolicy>(net, SkybandQuery{.band = 2}, r,
                                 net.overlay.RandomPeer(&rng));
  }
}

TEST(AsyncEngineTest, ConstrainedSkylineMatchesRecursiveEngine) {
  Net net = MakeNet(64, 900, 3, 623);
  Rng rng(29);
  SkylineQuery q;
  q.constraint = Rect(Point{0.2, 0.1, 0.3}, Point{0.9, 0.8, 1.0});
  for (const RippleParam r :
       {RippleParam::Fast(), RippleParam::Hops(1), RippleParam::Slow()}) {
    CrossValidate<SkylinePolicy>(net, q, r, net.overlay.RandomPeer(&rng));
  }
}

TEST(AsyncEngineTest, NearestTopKMatchesRecursiveEngine) {
  Net net = MakeNet(96, 1000, 3, 631);
  NearestScorer scorer(Point{0.3, 0.7, 0.5}, Norm::kL1);
  TopKQuery q{&scorer, 12};
  Rng rng(31);
  for (const RippleParam r :
       {RippleParam::Fast(), RippleParam::Hops(2), RippleParam::Slow()}) {
    CrossValidate<TopKPolicy>(net, q, r, net.overlay.RandomPeer(&rng));
  }
}

TEST(AsyncEngineTest, VarintWideIdsMatchRecursiveEngine) {
  // Ids from 2^14 - 64 up: answers and states carry ids of two and three
  // varint bytes side by side (the 1/2-byte boundary is crossed by every
  // net whose ids start at 0).
  Net net = MakeNet(64, 800, 2, 641, (uint64_t{1} << 14) - 64);
  Rng rng(37);
  LinearScorer scorer({-0.7, -0.3});
  TopKQuery topk{&scorer, 40};
  RangeQuery range{Point{0.5, 0.5}, 0.3, Norm::kLInf};
  for (const RippleParam r : {RippleParam::Fast(), RippleParam::Slow()}) {
    CrossValidate<TopKPolicy>(net, topk, r, net.overlay.RandomPeer(&rng));
    CrossValidate<SkylinePolicy>(net, SkylineQuery{}, r,
                                 net.overlay.RandomPeer(&rng));
    CrossValidate<RangePolicy>(net, range, r, net.overlay.RandomPeer(&rng));
  }
}

TEST(AsyncEngineTest, SlowModeCompletionTracksSequentialHops) {
  // With unit delays and slow mode, every forward and its response are
  // sequential: completion >= 2 * forward hops.
  Net net = MakeNet(48, 600, 2, 611);
  LinearScorer scorer({-0.6, -0.4});
  TopKQuery q{&scorer, 5};
  Engine<MidasOverlay, TopKPolicy> sync_engine(&net.overlay, TopKPolicy{});
  AsyncEngine<MidasOverlay, TopKPolicy> async_engine(&net.overlay,
                                                     TopKPolicy{});
  Rng rng(13);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  const auto sync = sync_engine.Run({.initiator = initiator, .query = q, .ripple = RippleParam::Slow()});
  const auto async = async_engine.Run({.initiator = initiator, .query = q, .ripple = RippleParam::Slow()});
  EXPECT_GE(async.completion_time,
            2.0 * static_cast<double>(sync.stats.latency_hops));
}

TEST(AsyncEngineTest, HeterogeneousDelaysChangeTimeNotWork) {
  Net net = MakeNet(64, 700, 3, 613);
  LinearScorer scorer({-0.3, -0.4, -0.3});
  TopKQuery q{&scorer, 8};
  Rng rng(17);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  AsyncEngine<MidasOverlay, TopKPolicy> unit(&net.overlay, TopKPolicy{});
  // A deterministic "slow continent" model: crossing between low and high
  // peer ids costs 10x.
  AsyncEngine<MidasOverlay, TopKPolicy> wan(
      &net.overlay, TopKPolicy{}, [](PeerId a, PeerId b) {
        return ((a < 32) != (b < 32)) ? 10.0 : 1.0;
      });
  const auto fast_unit = unit.Run({.initiator = initiator, .query = q});
  const auto fast_wan = wan.Run({.initiator = initiator, .query = q});
  EXPECT_EQ(fast_unit.stats.peers_visited, fast_wan.stats.peers_visited);
  EXPECT_EQ(fast_unit.stats.messages, fast_wan.stats.messages);
  EXPECT_GT(fast_wan.completion_time, fast_unit.completion_time);
  // Answers unaffected by timing.
  ASSERT_EQ(fast_unit.answer.size(), fast_wan.answer.size());
  for (size_t i = 0; i < fast_unit.answer.size(); ++i) {
    EXPECT_EQ(fast_unit.answer[i].id, fast_wan.answer[i].id);
  }
}

TEST(AsyncEngineTest, FastCompletionBeatsSlowCompletion) {
  Net net = MakeNet(128, 1500, 3, 617);
  LinearScorer scorer({-0.2, -0.5, -0.3});
  TopKQuery q{&scorer, 10};
  AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  Rng rng(19);
  double fast_total = 0, slow_total = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const PeerId initiator = net.overlay.RandomPeer(&rng);
    fast_total += engine.Run({.initiator = initiator, .query = q}).completion_time;
    slow_total += engine.Run({.initiator = initiator, .query = q, .ripple = RippleParam::Slow()}).completion_time;
  }
  EXPECT_LT(fast_total, slow_total);
}

// --- Stale forward handles ---------------------------------------------------

/// A PeerCore driver that keeps every frame and timer for the test to
/// deliver or fire by hand; cancelling a timer does not drop it, so a
/// timer can still fire after its forward is gone.
struct HandDriver {
  using Core = PeerCore<MidasOverlay, TopKPolicy, HandDriver>;
  using Session = Core::Session;
  static constexpr bool kConvergecast = false;

  double Now() const { return 0; }
  uint64_t ArmTimer(double, std::function<void()> fn) {
    timers.push_back(std::move(fn));
    return timers.size();
  }
  void CancelTimer(uint64_t) {}
  bool retransmits() const { return true; }
  const net::RetryOptions& retry() const { return retry_options; }
  const obs::Sink& sink() const { return no_sink; }
  void Send(const net::Envelope& env, std::span<const uint8_t>) {
    sent.push_back(env);
  }
  void EncodeQuery(const Core::Codec& codec, const net::Envelope& env,
                   const TopKQuery& q, const TopKState& g, const Rect& area,
                   int r, wire::Buffer* buf) {
    codec.EncodeQueryMessage(env, q, g, area, r, buf);
  }
  uint64_t NewRequestId(const Session&, uint64_t forward) {
    forwards.push_back(forward);
    return forwards.size() - 1;
  }
  uint64_t ForwardOf(uint64_t id) const {
    return id < forwards.size() ? forwards[id] : 0;
  }
  void Remember(const net::Envelope&, uint64_t) {}
  bool Alive(PeerId) const { return true; }
  void RejectFrame(bool) { ADD_FAILURE() << "frame rejected"; }
  void OnSessionOpened(const Session&) {}
  void OnQuerySent(const PendingRequest&) {}
  void OnReplySent(const Session&, bool) {}
  void OnAckSent(const Session&, size_t) {}
  void OnTimeout(const PendingRequest&, bool) { timeouts += 1; }
  void OnGiveUp(const PendingRequest&) { give_ups += 1; }
  void OnStaleResponse(uint64_t) { stale += 1; }
  void OnRootFinished() {}
  void SendAnswer(const Session&, TupleVec&&, size_t) {}

  net::RetryOptions retry_options;
  obs::Sink no_sink;
  std::vector<net::Envelope> sent;             // every query sent
  std::vector<std::function<void()>> timers;   // handle - 1 -> callback
  std::vector<uint64_t> forwards;              // message id -> handle
  int timeouts = 0;
  int give_ups = 0;
  int stale = 0;
};

TEST(AsyncEngineTest, LateFramesAndTimersOfAFreedForwardNeverReachItsSlot) {
  // A slow walk sends one forward at a time, so the second forward takes
  // the slot the first one freed. The first forward's late response,
  // stale ack and lapsed timer must all count as stale and leave the new
  // occupant alone: its strikes, its retransmissions, its session.
  Net net = MakeNet(32, 400, 2, 641);
  LinearScorer scorer({1.0, 1.0});
  const TopKPolicy policy;
  HandDriver driver;
  driver.retry_options.max_retries = 1;
  HandDriver::Core core(&net.overlay, &policy, &driver);
  const HandDriver::Core::Codec& codec = core.codec();
  const PeerId root = 0;
  ASSERT_GE(net.overlay.GetPeer(root).links.size(), 3u);
  core.OpenRoot(root, TopKQuery{&scorer, 5}, TopKState{},
                RippleParam::Slow().hops(), 0);
  ASSERT_EQ(driver.sent.size(), 1u);
  const net::Envelope first = driver.sent[0];

  // The first child reports nothing found, so the walk goes on to the
  // next link: the second forward reuses the first one's slot.
  const auto reply = [&](const net::Envelope& to, net::MessageKind kind) {
    const net::Envelope env{to.id, to.to, to.from, kind, 0, {}};
    wire::Buffer buf;
    if (kind == net::MessageKind::kResponse) {
      codec.EncodeResponseFrame(env, TopKState{}, &buf);
    } else {
      codec.EncodeAckMessage(env, &buf);
    }
    return std::pair{env, buf.Take()};
  };
  const auto [response_env, response] =
      reply(first, net::MessageKind::kResponse);
  core.OnResponse(response_env, response);
  ASSERT_EQ(driver.sent.size(), 2u);
  ASSERT_EQ(driver.forwards.size(), 2u);
  EXPECT_EQ(static_cast<uint32_t>(driver.forwards[0]),
            static_cast<uint32_t>(driver.forwards[1]));  // same slot
  EXPECT_NE(driver.forwards[0], driver.forwards[1]);    // new generation
  ASSERT_EQ(driver.timers.size(), 2u);

  // A network duplicate of the consumed response.
  core.OnResponse(response_env, response);
  EXPECT_EQ(driver.stale, 1);
  EXPECT_EQ(core.pending_forwards(), 1u);
  EXPECT_EQ(driver.sent.size(), 2u);  // the walk did not move on

  // The first forward's timer, cancelled when its response came in.
  driver.timers[0]();
  EXPECT_EQ(driver.timeouts, 0);
  EXPECT_EQ(driver.sent.size(), 2u);

  // The second forward times out once and is retransmitted (one strike).
  driver.timers[1]();
  EXPECT_EQ(driver.timeouts, 1);
  ASSERT_EQ(driver.sent.size(), 3u);
  EXPECT_EQ(driver.sent[2].id, driver.sent[1].id);

  // A late ack for the first forward must not restore the second's
  // patience: its next timeout spends the one retry and gives up.
  const auto [ack_env, ack] = reply(first, net::MessageKind::kAck);
  core.OnAck(ack_env.id, ack);
  driver.timers.back()();
  EXPECT_EQ(driver.timeouts, 2);
  EXPECT_EQ(driver.give_ups, 1);
}


// --- Pooled run scratch ------------------------------------------------------

TEST(AsyncEngineTest, WarmRuntimeReplaysAColdRunExactly) {
  // A run hands its scratch (event queue, clock, sessions, buffers) back
  // to the thread's pool, and the next run of the engine type takes it.
  // On a fresh thread the first run is cold; after other queries, one of
  // them large enough that its scratch is freed instead of pooled, the
  // same lossy query, on the same fault seed, must replay on warm scratch
  // exactly.
  Net net = MakeNet(128, 32000, 3, 641);
  LinearScorer scorer({-0.5, -0.2, -0.3});
  using Result = QueryResult<TupleVec>;
  Result cold;
  Result warm;
  uint64_t faults = 0;
  std::thread([&] {
    AsyncEngine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
    const auto run = [&](size_t k, RippleParam r, PeerId initiator) {
      return engine.Run(
          {.initiator = initiator,
           .query = TopKQuery{&scorer, k},
           .ripple = r,
           .retry = {.max_retries = 8},
           .fault = {.loss_rate = 0.02, .dup_rate = 0.01, .seed = 9}});
    };
    cold = run(10, RippleParam::Hops(2), 5);
    run(net.all.size(), RippleParam::Slow(), 17);  // too large to pool
    run(20, RippleParam::Fast(), 40);
    run(10, RippleParam::Slow(), 77);
    warm = run(10, RippleParam::Hops(2), 5);
    faults = cold.coverage.messages_lost + cold.coverage.messages_duplicated;
  }).join();
  EXPECT_GT(faults, 0u);  // the fault machinery did run
  ASSERT_EQ(warm.answer.size(), cold.answer.size());
  for (size_t i = 0; i < cold.answer.size(); ++i) {
    EXPECT_EQ(warm.answer[i].id, cold.answer[i].id);
  }
  EXPECT_EQ(warm.stats.ToString(), cold.stats.ToString());
  const net::Coverage& w = warm.coverage;
  const net::Coverage& c = cold.coverage;
  EXPECT_EQ(w.retries, c.retries);
  EXPECT_EQ(w.timeouts, c.timeouts);
  EXPECT_EQ(w.messages_lost, c.messages_lost);
  EXPECT_EQ(w.messages_duplicated, c.messages_duplicated);
  EXPECT_EQ(w.duplicates_suppressed, c.duplicates_suppressed);
  EXPECT_EQ(w.acks, c.acks);
  EXPECT_EQ(w.late_responses, c.late_responses);
  EXPECT_EQ(w.crash_drops, c.crash_drops);
  EXPECT_EQ(w.links_unresolved, c.links_unresolved);
  EXPECT_EQ(w.answers_lost, c.answers_lost);
  EXPECT_EQ(w.unreachable_peers, c.unreachable_peers);
  EXPECT_EQ(w.crashed_peers, c.crashed_peers);
  EXPECT_EQ(warm.complete, cold.complete);
  EXPECT_EQ(warm.completion_time, cold.completion_time);
}

}  // namespace
}  // namespace ripple
