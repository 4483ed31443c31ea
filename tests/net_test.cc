// Socket realities for the live overlay (ctest -L net): peers-file
// parsing, wall-clock timers, the UDP transport's drop-and-count
// discipline over real localhost sockets, the daemon's decode path under
// duplication / reordering / truncation / unknown frames, and a
// multi-daemon end-to-end run over UDP whose answers must be
// byte-identical to the same queries on the loopback simulator.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "geom/scoring.h"
#include "gtest/gtest.h"
#include "net/bootstrap.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/peers.h"
#include "net/protocol.h"
#include "net/transport.h"
#include "net/udp_transport.h"
#include "overlay/midas/midas.h"
#include "queries/skyline_driver.h"
#include "queries/topk_driver.h"
#include "ripple/timer_queue.h"
#include "ripple/wire_codec.h"
#include "sim/async_engine.h"

namespace ripple {
namespace {

// ---------------------------------------------------------------------------
// Peers file

constexpr char kPeersText[] =
    "# three processes\n"
    "config dataset=uniform peers=12 dims=2 tuples=500 seed=7 patterns=0\n"
    "\n"
    "peer 0-3 127.0.0.1:9101\n"
    "peer 4-7 127.0.0.1:9102\n"
    "peer 8-11 127.0.0.1:9103\n";

TEST(PeersFileTest, ParsesConfigAndAssignments) {
  auto pf = net::ParsePeersFile(kPeersText);
  ASSERT_TRUE(pf.ok()) << pf.status().message();
  EXPECT_EQ(pf->config.dataset, "uniform");
  EXPECT_EQ(pf->config.peers, 12u);
  EXPECT_EQ(pf->config.dims, 2);
  EXPECT_EQ(pf->config.tuples, 500u);
  EXPECT_EQ(pf->config.seed, 7u);
  EXPECT_FALSE(pf->config.patterns);
  ASSERT_EQ(pf->assignments.size(), 3u);
  const net::Endpoint* ep = pf->Find(5);
  ASSERT_NE(ep, nullptr);
  EXPECT_EQ(ep->ToString(), "127.0.0.1:9102");
  EXPECT_EQ(pf->Find(12), nullptr);
  EXPECT_EQ(pf->PeersAt({"127.0.0.1", 9103}),
            (std::vector<PeerId>{8, 9, 10, 11}));
  EXPECT_EQ(pf->Processes().size(), 3u);
}

TEST(PeersFileTest, FormatRoundTrips) {
  auto pf = net::ParsePeersFile(kPeersText);
  ASSERT_TRUE(pf.ok());
  auto again = net::ParsePeersFile(pf->Format());
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(again->Format(), pf->Format());
  EXPECT_EQ(again->assignments.size(), pf->assignments.size());
}

TEST(PeersFileTest, RejectsCoverageGapAndOverlap) {
  auto gap = net::ParsePeersFile(
      "config peers=4\npeer 0-1 127.0.0.1:1\npeer 3 127.0.0.1:2\n");
  EXPECT_FALSE(gap.ok());
  auto overlap = net::ParsePeersFile(
      "config peers=4\npeer 0-2 127.0.0.1:1\npeer 2-3 127.0.0.1:2\n");
  EXPECT_FALSE(overlap.ok());
}

TEST(PeersFileTest, RejectsMalformedLines) {
  EXPECT_FALSE(net::ParsePeersFile("peer 0-1 nowhere\n").ok());
  EXPECT_FALSE(net::ParsePeersFile("config peers=\n").ok());
  EXPECT_FALSE(net::ParseEndpoint("127.0.0.1").ok());
  EXPECT_FALSE(net::ParseEndpoint("127.0.0.1:notaport").ok());
  // Numbers are plain decimal digits that fit: no sign, no wrap, no
  // overflow saturation.
  EXPECT_FALSE(net::ParsePeersFile("config peers=-1\n").ok());
  EXPECT_FALSE(net::ParsePeersFile("config peers=+5\n").ok());
  EXPECT_FALSE(net::ParsePeersFile("config peers= 5\n").ok());
  EXPECT_FALSE(net::ParsePeersFile("config seed=18446744073709551616\n").ok());
  EXPECT_FALSE(net::ParsePeersFile("config peers=4294967296\n").ok());
  EXPECT_FALSE(net::ParseEndpoint("127.0.0.1:-1").ok());
  EXPECT_FALSE(net::ParseEndpoint("127.0.0.1:+80").ok());
  // dims must lie in [1, kMaxDims].
  EXPECT_FALSE(net::ParsePeersFile("config dims=-3\n").ok());
  EXPECT_FALSE(net::ParsePeersFile("config dims=0\n").ok());
  EXPECT_FALSE(net::ParsePeersFile("config dims=11\n").ok());
  // Peer ids must fit below kInvalidPeer instead of wrapping onto peer 0.
  EXPECT_FALSE(
      net::ParsePeersFile("config peers=1\npeer 4294967296 h:1\n").ok());
  EXPECT_FALSE(
      net::ParsePeersFile("config peers=1\npeer 0-4294967296 h:1\n").ok());
  EXPECT_FALSE(net::ParsePeersFile("config peers=1\npeer -1 h:1\n").ok());
  // A huge declared peer count is checked without allocating per id.
  EXPECT_FALSE(
      net::ParsePeersFile("config peers=4294967295\npeer 0 h:1\n").ok());
  auto widest = net::ParsePeersFile(
      "config peers=4294967295 dims=10\npeer 0-4294967294 h:1\n");
  ASSERT_TRUE(widest.ok()) << widest.status().message();
  EXPECT_EQ(widest->config.dims, 10);
  auto ep = net::ParseEndpoint("10.0.0.2:19000");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep->host, "10.0.0.2");
  EXPECT_EQ(ep->port, 19000);
}

// ---------------------------------------------------------------------------
// Wall-clock timers: the daemon runs the shared TimerQueue on steady_clock
// milliseconds.

double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TEST(WallTimersTest, FiresDueTimersInOrder) {
  TimerQueue timers;
  std::vector<int> fired;
  timers.Arm(WallMs(), [&] { fired.push_back(1); });
  timers.Arm(WallMs(), [&] { fired.push_back(2); });
  EXPECT_EQ(timers.pending(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  timers.RunDue(WallMs());
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(timers.pending(), 0u);
  EXPECT_TRUE(std::isinf(timers.NextAt()));
}

TEST(WallTimersTest, CancelledTimerNeverFires) {
  TimerQueue timers;
  bool fired = false;
  const uint64_t id = timers.Arm(WallMs(), [&] { fired = true; });
  timers.Cancel(id);
  timers.Cancel(id);  // double-cancel is a no-op
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  timers.RunDue(WallMs());
  EXPECT_FALSE(fired);
  EXPECT_TRUE(std::isinf(timers.NextAt()));
}

TEST(WallTimersTest, NextDelayBoundsThePoll) {
  TimerQueue timers;
  timers.Arm(WallMs() + 200.0, [] {});
  const double delay = timers.NextAt() - WallMs();
  EXPECT_GT(delay, 0.0);
  EXPECT_LE(delay, 200.0);
}

TEST(WallTimersTest, CallbackMayRearm) {
  TimerQueue timers;
  int fires = 0;
  std::function<void()> rearm = [&] {
    if (++fires < 3) timers.Arm(WallMs(), rearm);
  };
  timers.Arm(WallMs(), rearm);
  for (int i = 0; i < 5 && fires < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    timers.RunDue(WallMs());
  }
  EXPECT_EQ(fires, 3);
}

// ---------------------------------------------------------------------------
// Shared fixtures

/// Encodes a live client query frame exactly as net::NetClient does.
template <typename Policy>
std::vector<uint8_t> ClientQueryFrame(const MidasOverlay& overlay,
                                      const Policy& policy,
                                      const typename Policy::Query& query,
                                      uint64_t id, PeerId client,
                                      PeerId target, int64_t r) {
  const net::Envelope env{id, client, target, net::MessageKind::kQuery, 0, {}};
  const WireCodec<MidasOverlay, Policy> codec(&overlay, &policy);
  wire::Buffer buf;
  net::EncodeLiveQuery(codec, env, query, policy.InitialGlobalState(query),
                       overlay.FullArea(), r, &buf);
  return buf.Take();
}

net::NetConfig SmallConfig() {
  net::NetConfig config;
  config.dataset = "uniform";
  config.peers = 6;
  config.dims = 2;
  config.tuples = 400;
  config.seed = 3;
  return config;
}

// ---------------------------------------------------------------------------
// UDP transport over real localhost sockets

/// Peers file whose single assignment points every overlay id at `ep`.
net::PeersFile OneProcessFile(const net::Endpoint& ep, uint64_t peers = 6) {
  net::PeersFile pf;
  pf.config = SmallConfig();
  pf.config.peers = peers;
  pf.assignments.push_back(
      net::PeerAssignment{0, static_cast<PeerId>(peers - 1), ep});
  return pf;
}

TEST(UdpTransportTest, RoundTripsFramedDatagrams) {
  // Receiver binds ephemeral; the sender's peers file then points peer 0
  // at the receiver, and the receiver learns the client's return address
  // from the arriving datagram's source.
  auto recv = net::UdpSocketTransport::Open(
      OneProcessFile({"127.0.0.1", 0}), {"127.0.0.1", 0});
  ASSERT_TRUE(recv.ok()) << recv.status().message();
  ASSERT_NE((*recv)->local_endpoint().port, 0);
  auto send = net::UdpSocketTransport::Open(
      OneProcessFile((*recv)->local_endpoint()), {"127.0.0.1", 0});
  ASSERT_TRUE(send.ok()) << send.status().message();

  const PeerId client = net::kClientIdBase | 42;
  const net::Envelope env{net::MakeMessageId(client, 1), client, 0,
                          net::MessageKind::kQuery, 0, {}};
  wire::Buffer buf;
  const size_t start = net::BeginEnvelopeFrame(env, &buf);
  buf.PutU8(7);
  wire::EndFrame(&buf, start);
  const std::vector<uint8_t> frame = buf.Take();
  (*send)->Send(env, std::vector<uint8_t>(frame));
  EXPECT_EQ((*send)->datagrams_sent, 1u);

  net::Datagram d;
  ASSERT_TRUE((*recv)->Poll(&d, 2000));
  EXPECT_EQ(d.env.id, env.id);
  EXPECT_EQ(d.env.from, client);
  EXPECT_EQ(d.env.to, 0u);
  EXPECT_EQ(d.env.kind, net::MessageKind::kQuery);
  EXPECT_EQ(d.bytes, frame);

  // The learned client address resolves the reply path.
  const net::Envelope reply{env.id, 0, client, net::MessageKind::kAck, 0, {}};
  wire::Buffer rbuf;
  const size_t rstart = net::BeginEnvelopeFrame(reply, &rbuf);
  wire::EndFrame(&rbuf, rstart);
  (*recv)->Send(reply, rbuf.Take());
  EXPECT_EQ((*recv)->unknown_peer_dropped, 0u);
  net::Datagram rd;
  ASSERT_TRUE((*send)->Poll(&rd, 2000));
  EXPECT_EQ(rd.env.kind, net::MessageKind::kAck);
}

TEST(UdpTransportTest, DropsAndCountsGarbageAndUnknownSenders) {
  auto recv = net::UdpSocketTransport::Open(
      OneProcessFile({"127.0.0.1", 0}), {"127.0.0.1", 0});
  ASSERT_TRUE(recv.ok());
  auto send = net::UdpSocketTransport::Open(
      OneProcessFile((*recv)->local_endpoint()), {"127.0.0.1", 0});
  ASSERT_TRUE(send.ok());

  // Unframed garbage: arrives, fails the frame decode, dropped.
  const net::Envelope to0{1, net::kClientIdBase | 1, 0,
                          net::MessageKind::kQuery, 0, {}};
  (*send)->Send(to0, {0xde, 0xad, 0xbe, 0xef});

  // A frame whose header declares more payload than the datagram carries
  // (truncation in flight): dropped on the same counter.
  wire::Buffer buf;
  const size_t start = net::BeginEnvelopeFrame(to0, &buf);
  for (int i = 0; i < 64; ++i) buf.PutU8(0);
  wire::EndFrame(&buf, start);
  std::vector<uint8_t> truncated = buf.Take();
  truncated.resize(truncated.size() - 32);
  (*send)->Send(to0, std::move(truncated));

  // A well-formed frame claiming an unknown, non-client sender id.
  const net::Envelope unknown_from{2, 77777, 0, net::MessageKind::kQuery, 0,
                                   {}};
  wire::Buffer ubuf;
  const size_t ustart = net::BeginEnvelopeFrame(unknown_from, &ubuf);
  wire::EndFrame(&ubuf, ustart);
  (*send)->Send(unknown_from, ubuf.Take());

  // Pump until all three arrivals were seen (UDP gives no arrival order
  // guarantee); every one must be dropped, so Poll never yields.
  net::Datagram d;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while ((*recv)->datagrams_received < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    EXPECT_FALSE((*recv)->Poll(&d, 50));
  }
  EXPECT_EQ((*recv)->datagrams_received, 3u);
  EXPECT_EQ((*recv)->malformed_dropped, 2u);
  EXPECT_EQ((*recv)->unknown_peer_dropped, 1u);
}

TEST(UdpTransportTest, RefusesOversizeAndUnresolvableSends) {
  auto t = net::UdpSocketTransport::Open(OneProcessFile({"127.0.0.1", 1}),
                                         {"127.0.0.1", 0});
  ASSERT_TRUE(t.ok());
  const net::Envelope env{1, 0, 0, net::MessageKind::kQuery, 0, {}};
  (*t)->Send(env, std::vector<uint8_t>(net::UdpSocketTransport::kMaxDatagram
                                       + 1));
  EXPECT_EQ((*t)->oversize_dropped, 1u);
  const net::Envelope to_nowhere{1, 0, 999, net::MessageKind::kQuery, 0, {}};
  (*t)->Send(to_nowhere, {1});
  EXPECT_EQ((*t)->unknown_peer_dropped, 1u);
  EXPECT_EQ((*t)->datagrams_sent, 0u);
}

// ---------------------------------------------------------------------------
// Daemon decode path under socket realities (datagrams injected directly)

/// Transport that records every send; nothing is delivered anywhere.
class CaptureTransport : public net::Transport {
 public:
  void Send(const net::Envelope& env, std::vector<uint8_t> bytes) override {
    sent.push_back(net::Datagram{env, std::move(bytes)});
  }
  std::vector<net::Datagram> sent;
};

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest() : overlay_(net::BuildOverlay(SmallConfig())) {}

  std::unique_ptr<MidasOverlay> overlay_;
  const PeerId client_ = net::kClientIdBase | 9;
};

TEST_F(DaemonTest, DuplicateQueryReplaysTheCachedReply) {
  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire, {0, 1, 2, 3, 4,
                                                               5});
  SkylinePolicy policy;
  const uint64_t id = net::MakeMessageId(client_, 1);
  std::vector<uint8_t> frame = ClientQueryFrame(
      *overlay_, policy, SkylineQuery{}, id, client_, 0, /*r=*/0);
  const net::Envelope env{id, client_, 0, net::MessageKind::kQuery, 0, {}};

  // Serving every peer over a capture transport: child requests go
  // nowhere, so resolve them by running the retry budget dry... no —
  // r=0 on the daemon serving ALL peers still forwards to link targets
  // it serves itself. Instead loop the captured traffic back in, which
  // is a perfect network with in-order delivery.
  daemon.Dispatch(net::Datagram{env, std::vector<uint8_t>(frame)});
  size_t answers = 0;
  std::vector<uint8_t> first_answer;
  for (int round = 0; round < 64 && !wire.sent.empty(); ++round) {
    std::vector<net::Datagram> batch = std::move(wire.sent);
    wire.sent.clear();
    for (auto& d : batch) {
      if (net::IsClientId(d.env.to)) {
        if (d.env.kind == net::MessageKind::kAnswer && answers++ == 0) {
          first_answer = d.bytes;
        }
        continue;
      }
      daemon.Dispatch(std::move(d));
    }
  }
  ASSERT_EQ(answers, 1u);
  ASSERT_FALSE(first_answer.empty());
  EXPECT_GT(daemon.stats().queries_served, 1u);  // children opened sessions

  // The network duplicates the client's query after the session finished:
  // the daemon replays the byte-identical cached answer, opening nothing.
  const uint64_t served_before = daemon.stats().queries_served;
  daemon.Dispatch(net::Datagram{env, std::vector<uint8_t>(frame)});
  EXPECT_EQ(daemon.stats().queries_served, served_before);
  EXPECT_EQ(daemon.stats().duplicates_suppressed, 1u);
  ASSERT_EQ(wire.sent.size(), 1u);
  EXPECT_EQ(wire.sent[0].env.kind, net::MessageKind::kAnswer);
  EXPECT_EQ(wire.sent[0].bytes, first_answer);
  EXPECT_EQ(daemon.stats().retransmissions, 1u);
}

// A client's synthetic id (kClientIdBase | n) must never index the
// profiler's dense per-peer vector: replying to a client once tried to
// resize it to 2^31 PeerLoad slots and took the daemon down with
// bad_alloc. The reply's load lands on the serving peer only.
TEST_F(DaemonTest, ProfilerIgnoresClientIdsOnReply) {
  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire,
                                       {0, 1, 2, 3, 4, 5});
  obs::Profiler profiler;
  daemon.SetSink(obs::Sink(nullptr, &profiler, nullptr));
  RangePolicy policy;
  const uint64_t id = net::MakeMessageId(client_, 9);
  const RangeQuery query{overlay_->domain().Center(), 0.25, Norm::kL2};
  std::vector<uint8_t> frame =
      ClientQueryFrame(*overlay_, policy, query, id, client_, 0, /*r=*/0);
  daemon.Dispatch(net::Datagram{
      net::Envelope{id, client_, 0, net::MessageKind::kQuery, 0, {}},
      std::vector<uint8_t>(frame)});
  for (int round = 0; round < 64 && !wire.sent.empty(); ++round) {
    std::vector<net::Datagram> batch = std::move(wire.sent);
    wire.sent.clear();
    for (auto& d : batch) {
      if (net::IsClientId(d.env.to)) continue;
      daemon.Dispatch(std::move(d));
    }
  }
  EXPECT_GT(daemon.stats().replies_sent, 0u);
  EXPECT_LE(profiler.peer_count(), overlay_->NumPeers());
  EXPECT_GT(profiler.Totals().messages_out, 0u);
}

// The daemon journals every query frame it sends or receives, sampled or
// not: a live client never samples (trace id 0), yet an operator's
// --journal-out must still show the query's traffic. Admin probes stay
// out of the journals.
TEST_F(DaemonTest, JournalRecordsUnsampledQueryFramesButNoAdminFrames) {
  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire,
                                       {0, 1, 2, 3, 4, 5});
  obs::JournalSet journal;
  daemon.SetSink(obs::Sink(nullptr, nullptr, &journal));
  SkylinePolicy policy;
  const uint64_t id = net::MakeMessageId(client_, 11);
  daemon.Dispatch(net::Datagram{
      net::Envelope{id, client_, 0, net::MessageKind::kQuery, 0, {}},
      ClientQueryFrame(*overlay_, policy, SkylineQuery{}, id, client_, 0,
                       /*r=*/1)});
  size_t answers = 0;
  for (int round = 0; round < 64 && !wire.sent.empty(); ++round) {
    std::vector<net::Datagram> batch = std::move(wire.sent);
    wire.sent.clear();
    for (auto& d : batch) {
      if (net::IsClientId(d.env.to)) {
        answers += d.env.kind == net::MessageKind::kAnswer;
        continue;
      }
      daemon.Dispatch(std::move(d));
    }
  }
  ASSERT_EQ(answers, 1u);
  size_t sends = 0;
  size_t recvs = 0;
  for (uint32_t peer : journal.Peers()) {
    for (const obs::JournalEvent& e : journal.Snapshot(peer).events) {
      EXPECT_EQ(e.trace_id, 0u);
      sends += e.kind == obs::JournalEventKind::kFrameSend;
      recvs += e.kind == obs::JournalEventKind::kFrameRecv;
    }
  }
  // Every session received its query; every session sent its reply.
  EXPECT_EQ(recvs, daemon.stats().queries_served + daemon.stats().replies_sent -
                       1);
  EXPECT_EQ(sends, daemon.stats().child_requests + daemon.stats().replies_sent);
  const uint64_t events = journal.TotalEvents();
  ASSERT_GT(events, 0u);

  const net::Envelope probe{net::MakeMessageId(client_, 12), client_, 0,
                            net::MessageKind::kAdminStats, 0, {}};
  wire::Buffer buf;
  wire::EndFrame(&buf, net::BeginEnvelopeFrame(probe, &buf));
  daemon.Dispatch(net::Datagram{probe, buf.Take()});
  ASSERT_EQ(wire.sent.size(), 1u);
  EXPECT_EQ(wire.sent[0].env.kind, net::MessageKind::kAdminStats);
  EXPECT_EQ(journal.TotalEvents(), events);
}

TEST_F(DaemonTest, TruncatedQueryIsRejectedWithoutPoisoningDedup) {
  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire,
                                       {0, 1, 2, 3, 4, 5});
  RangePolicy policy;
  RangeQuery query;
  query.center = Point(2);
  query.center[0] = query.center[1] = 0.5;
  query.radius = 0.25;
  const uint64_t id = net::MakeMessageId(client_, 2);
  const std::vector<uint8_t> frame =
      ClientQueryFrame(*overlay_, policy, query, id, client_, 1, /*r=*/0);
  const net::Envelope env{id, client_, 1, net::MessageKind::kQuery, 0, {}};

  // Truncated-at-MTU copy first: the frame header survives but the
  // payload is cut. Rejected — and NOT remembered, so the clean
  // retransmission below must open a session, not hit the dedup window.
  std::vector<uint8_t> cut(frame.begin(), frame.begin() + frame.size() / 2);
  daemon.Dispatch(net::Datagram{env, std::move(cut)});
  EXPECT_EQ(daemon.stats().frames_rejected, 1u);
  EXPECT_EQ(daemon.stats().queries_served, 0u);

  daemon.Dispatch(net::Datagram{env, std::vector<uint8_t>(frame)});
  EXPECT_EQ(daemon.stats().duplicates_suppressed, 0u);
  EXPECT_GE(daemon.stats().queries_served, 1u);
}

TEST_F(DaemonTest, RejectsUnknownPolicyTagAndMisdeliveredFrames) {
  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire, {0, 1, 2});

  // Valid frame, nonsense policy tag byte.
  const uint64_t id = net::MakeMessageId(client_, 3);
  const net::Envelope env{id, client_, 0, net::MessageKind::kQuery, 0, {}};
  wire::Buffer buf;
  const size_t start = net::BeginEnvelopeFrame(env, &buf);
  buf.PutU8(0xee);
  wire::EndFrame(&buf, start);
  daemon.Dispatch(net::Datagram{env, buf.Take()});
  EXPECT_EQ(daemon.stats().frames_rejected, 1u);

  // Query for a peer this process does not serve.
  SkylinePolicy policy;
  const uint64_t id2 = net::MakeMessageId(client_, 4);
  std::vector<uint8_t> other = ClientQueryFrame(
      *overlay_, policy, SkylineQuery{}, id2, client_, 5, /*r=*/0);
  const net::Envelope env2{id2, client_, 5, net::MessageKind::kQuery, 0, {}};
  daemon.Dispatch(net::Datagram{env2, std::move(other)});
  EXPECT_EQ(daemon.stats().misdelivered, 1u);

  // A bare answer datagram addresses clients, never daemons.
  const net::Envelope aenv{id, 0, 1, net::MessageKind::kAnswer, 0, {}};
  daemon.Dispatch(net::Datagram{aenv, {}});
  EXPECT_EQ(daemon.stats().misdelivered, 2u);
  EXPECT_EQ(daemon.stats().queries_served, 0u);
}

TEST_F(DaemonTest, GivingUpOnSilentChildrenCountsLinksUnresolved) {
  // The daemon serves only peer 0; every child forward leaves on a
  // capture transport and is never answered. With a zero retry budget
  // each pending request gives up on its first timeout, the session
  // degrades to a partial answer, and links_unresolved records every
  // abandoned subtree.
  CaptureTransport wire;
  net::RetryOptions retry;
  retry.timeout = 1.0;  // wall-clock ms
  retry.timeout_cap = 2.0;
  retry.max_retries = 0;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire, {0}, retry);
  SkylinePolicy policy;
  const uint64_t id = net::MakeMessageId(client_, 21);
  std::vector<uint8_t> frame = ClientQueryFrame(
      *overlay_, policy, SkylineQuery{}, id, client_, 0, /*r=*/2);
  const net::Envelope env{id, client_, 0, net::MessageKind::kQuery, 0, {}};
  daemon.Dispatch(net::Datagram{env, std::move(frame)});
  ASSERT_GT(daemon.stats().child_requests, 0u);
  EXPECT_EQ(daemon.stats().links_unresolved, 0u);

  // The slow walk forwards to one child at a time, so each give-up can
  // arm the next doomed forward: pump the timer wheel until the session
  // closes, then every forward ever issued must have been abandoned.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (daemon.Depths().open_sessions > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    daemon.ServeOnce(0);
  }
  EXPECT_EQ(daemon.Depths().open_sessions, 0u);
  EXPECT_EQ(daemon.stats().links_unresolved, daemon.stats().child_requests);
  EXPECT_EQ(daemon.Depths().pending_requests, 0u);
  EXPECT_EQ(daemon.timers().pending(), 0u);

  // The degraded session still reported: the client got an answer.
  bool answered = false;
  for (const auto& d : wire.sent) {
    answered |= net::IsClientId(d.env.to) &&
                d.env.kind == net::MessageKind::kAnswer;
  }
  EXPECT_TRUE(answered);
  EXPECT_EQ(daemon.stats().answers_finalized, 1u);
}

/// A NetClient's transport onto an in-process daemon: the client's
/// datagrams go straight into the daemon, and each Poll runs the daemon's
/// timers and loops its captured traffic back — peer-bound datagrams into
/// the daemon unless `withhold` drops them, client-bound ones to the
/// client.
class DaemonBridge : public net::Transport {
 public:
  DaemonBridge(net::PeerDaemon<MidasOverlay>* daemon, CaptureTransport* wire,
               std::function<bool(const net::Datagram&)> withhold)
      : daemon_(daemon), wire_(wire), withhold_(std::move(withhold)) {}

  void Send(const net::Envelope& env, std::vector<uint8_t> bytes) override {
    daemon_->Dispatch(net::Datagram{env, std::move(bytes)});
  }

  bool Poll(net::Datagram* out, int timeout_ms) override {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      std::vector<net::Datagram> batch = std::move(wire_->sent);
      wire_->sent.clear();
      for (net::Datagram& d : batch) {
        if (net::IsClientId(d.env.to)) {
          if (d.env.kind == net::MessageKind::kAnswer) answer = d.bytes;
          to_client_.push_back(std::move(d));
        } else if (!withhold_(d)) {
          daemon_->Dispatch(std::move(d));
        }
      }
      if (!wire_->sent.empty()) continue;
      if (!to_client_.empty()) {
        *out = std::move(to_client_.front());
        to_client_.pop_front();
        return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      daemon_->ServeOnce(0);
    }
  }

  std::vector<uint8_t> answer;  // the last answer datagram to the client

 private:
  net::PeerDaemon<MidasOverlay>* daemon_;
  CaptureTransport* wire_;
  std::function<bool(const net::Datagram&)> withhold_;
  std::deque<net::Datagram> to_client_;  // what the client's Poll returns
};

TEST_F(DaemonTest, WithheldSubtreeFlagsTheAnswerIncomplete) {
  // One daemon serves every peer. Every reply to one forward is withheld
  // — a forward of the root, or one issued deeper in the tree — so its
  // requester gives up on that link and the root still answers. That
  // answer must carry the incomplete bit (OR'ed up through intermediate
  // replies), and the client must not call it complete. With nothing
  // withheld the same query is complete and unflagged.
  net::RetryOptions retry;
  retry.timeout = 2.0;  // wall-clock ms
  retry.timeout_cap = 4.0;
  retry.max_retries = 1;
  net::RetryOptions client_retry;
  client_retry.timeout = 200.0;
  client_retry.timeout_cap = 400.0;
  struct Outcome {
    bool complete = false;
    bool flagged = false;
    uint64_t links_unresolved = 0;
  };
  // `from_root`: withhold a forward of peer 0 (the root) or of any other
  // peer; nullopt withholds nothing.
  auto run = [&](std::optional<bool> from_root) {
    CaptureTransport wire;
    net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire,
                                         {0, 1, 2, 3, 4, 5}, retry);
    uint64_t withheld = 0;
    DaemonBridge bridge(&daemon, &wire, [&](const net::Datagram& d) {
      if (withheld == 0 && from_root.has_value() &&
          d.env.kind == net::MessageKind::kQuery &&
          (d.env.from == 0) == *from_root) {
        withheld = d.env.id;
      }
      return d.env.kind == net::MessageKind::kResponse &&
             d.env.id == withheld;
    });
    net::NetClient<MidasOverlay> client(overlay_.get(), &bridge, client_,
                                        client_retry);
    SkylinePolicy policy;
    const auto live = client.Execute(policy, SkylineQuery{}, 0, /*r=*/0,
                                     policy.InitialGlobalState({}));
    EXPECT_EQ(withheld != 0, from_root.has_value());
    EXPECT_FALSE(live.answer.empty());
    Outcome o;
    o.complete = live.complete;
    wire::Reader r(bridge.answer);
    wire::FrameHeader h;
    EXPECT_TRUE(wire::DecodeFrameHeader(&r, &h));
    o.flagged = (h.trace.flags & wire::kFrameFlagIncomplete) != 0;
    o.links_unresolved = daemon.stats().links_unresolved;
    return o;
  };

  const Outcome clean = run(std::nullopt);
  EXPECT_TRUE(clean.complete);
  EXPECT_FALSE(clean.flagged);
  EXPECT_EQ(clean.links_unresolved, 0u);
  for (const bool from_root : {true, false}) {
    const Outcome lost = run(from_root);
    EXPECT_FALSE(lost.complete) << "from_root=" << from_root;
    EXPECT_TRUE(lost.flagged) << "from_root=" << from_root;
    EXPECT_EQ(lost.links_unresolved, 1u) << "from_root=" << from_root;
  }
}

TEST_F(DaemonTest, ClientsSharingAnIdAreAnsweredTheirOwnQueries) {
  // Every net-bench process uses one client id. The daemon dedups on the
  // message id alone, so two clients that numbered their queries alike
  // would have the second one answered from the first one's reply cache.
  LinearScorer scorer(std::vector<double>{-0.8, -0.3});
  TopKPolicy policy;
  TopKQuery first;
  first.scorer = &scorer;
  first.k = 3;
  TopKQuery second = first;
  second.k = 7;
  auto execute = [&](net::PeerDaemon<MidasOverlay>* daemon,
                     CaptureTransport* wire, const TopKQuery& q) {
    DaemonBridge bridge(daemon, wire,
                        [](const net::Datagram&) { return false; });
    net::NetClient<MidasOverlay> client(overlay_.get(), &bridge, client_);
    return client.Execute(policy, q, 0, /*r=*/0, policy.InitialGlobalState(q));
  };
  CaptureTransport alone_wire;
  net::PeerDaemon<MidasOverlay> alone(overlay_.get(), &alone_wire,
                                      {0, 1, 2, 3, 4, 5});
  const auto want = execute(&alone, &alone_wire, second);
  ASSERT_TRUE(want.complete);
  ASSERT_EQ(want.answer.size(), 7u);

  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire,
                                       {0, 1, 2, 3, 4, 5});
  const auto a = execute(&daemon, &wire, first);
  const auto b = execute(&daemon, &wire, second);
  ASSERT_TRUE(a.complete);
  ASSERT_TRUE(b.complete);
  EXPECT_EQ(a.answer.size(), 3u);
  EXPECT_EQ(b.answer, want.answer);
  EXPECT_EQ(daemon.stats().answers_finalized, 2u);
  EXPECT_EQ(daemon.stats().duplicates_suppressed, 0u);
}

TEST_F(DaemonTest, GarbageAdminFramesAreCountedNeverAnswered) {
  // The admin plane must survive the same abuse as the query plane: a
  // frame whose envelope says "admin" but whose bytes are truncated or
  // carry stray payload is counted and dropped — no reply, no crash.
  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire, {0, 1, 2});
  const net::Envelope env{net::MakeMessageId(client_, 31), client_, 0,
                          net::MessageKind::kAdminStats, 0, {}};
  wire::Buffer buf;
  const size_t start = net::BeginEnvelopeFrame(env, &buf);
  wire::EndFrame(&buf, start);
  const std::vector<uint8_t> frame = buf.Take();

  uint64_t rejected = 0;
  // Every strict prefix of a valid probe frame fails the re-decode.
  for (size_t cut = 0; cut < frame.size(); cut += 3) {
    daemon.Dispatch(net::Datagram{
        env, std::vector<uint8_t>(frame.begin(),
                                  frame.begin() + static_cast<long>(cut))});
    rejected += 1;
    EXPECT_EQ(daemon.stats().frames_rejected, rejected);
  }
  // Deterministic byte soup after the envelope: payload on an admin
  // request violates the empty-payload contract.
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int round = 0; round < 16; ++round) {
    wire::Buffer b;
    const size_t s = net::BeginEnvelopeFrame(env, &b);
    for (int i = 0; i <= round; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b.PutU8(static_cast<uint8_t>(x));
    }
    wire::EndFrame(&b, s);
    daemon.Dispatch(net::Datagram{env, b.Take()});
    rejected += 1;
    EXPECT_EQ(daemon.stats().frames_rejected, rejected);
  }
  EXPECT_TRUE(wire.sent.empty());
  EXPECT_EQ(daemon.stats().admin_requests, 0u);

  // And the well-formed probe still works afterwards.
  daemon.Dispatch(net::Datagram{env, std::vector<uint8_t>(frame)});
  EXPECT_EQ(daemon.stats().admin_requests, 1u);
  EXPECT_EQ(wire.sent.size(), 1u);
}

/// A top-k query frame, valid but for its scorer: `scorer` is the raw
/// scorer payload.
std::vector<uint8_t> TopKFrameWithScorer(const MidasOverlay& overlay,
                                         const net::Envelope& env,
                                         const std::vector<uint8_t>& scorer) {
  wire::Buffer buf;
  const size_t start = net::BeginEnvelopeFrame(env, &buf);
  buf.PutU8(static_cast<uint8_t>(net::PolicyTag::kTopK));
  buf.PutZigzag(0);  // r
  buf.PutBytes(scorer.data(), scorer.size());
  buf.PutVarint(10);  // k
  buf.PutF64(0.0);    // epsilon
  TopKPolicy().EncodeState(TopKState{}, &buf);
  overlay.EncodeArea(overlay.FullArea(), &buf);
  wire::EndFrame(&buf, start);
  return buf.Take();
}

TEST_F(DaemonTest, HostileScorerIsRejectedAndTheDaemonServesOn) {
  // A linear scorer with no weights, or with more than kMaxDims, must be
  // a rejected frame, never a failed check that aborts the daemon.
  std::vector<uint8_t> too_many = {1, kMaxDims + 1};
  too_many.resize(too_many.size() + 8 * (kMaxDims + 1), 0);
  const std::vector<std::vector<uint8_t>> hostile = {{1, 0}, too_many};
  uint32_t seq = 40;
  for (const std::vector<uint8_t>& scorer : hostile) {
    CaptureTransport wire;
    net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire,
                                         {0, 1, 2, 3, 4, 5});
    const net::Envelope bad{net::MakeMessageId(client_, seq++), client_, 0,
                            net::MessageKind::kQuery, 0, {}};
    daemon.Dispatch(
        net::Datagram{bad, TopKFrameWithScorer(*overlay_, bad, scorer)});
    EXPECT_EQ(daemon.stats().frames_rejected, 1u);
    EXPECT_EQ(daemon.stats().queries_served, 0u);
    EXPECT_TRUE(wire.sent.empty());

    // The next, well-formed query is answered.
    const LinearScorer good({-0.5, -0.5});
    TopKQuery query;
    query.scorer = &good;
    query.k = 5;
    const uint64_t id = net::MakeMessageId(client_, seq++);
    daemon.Dispatch(net::Datagram{
        net::Envelope{id, client_, 0, net::MessageKind::kQuery, 0, {}},
        ClientQueryFrame(*overlay_, TopKPolicy{}, query, id, client_, 0,
                         /*r=*/0)});
    size_t answers = 0;
    for (int round = 0; round < 64 && !wire.sent.empty(); ++round) {
      std::vector<net::Datagram> batch = std::move(wire.sent);
      wire.sent.clear();
      for (auto& d : batch) {
        if (net::IsClientId(d.env.to)) {
          answers += d.env.kind == net::MessageKind::kAnswer ? 1 : 0;
          continue;
        }
        daemon.Dispatch(std::move(d));
      }
    }
    EXPECT_EQ(answers, 1u);
    EXPECT_EQ(daemon.stats().answers_finalized, 1u);
    EXPECT_EQ(daemon.stats().frames_rejected, 1u);
  }
}

/// Two daemons split the overlay; the test is the network between them,
/// delivering every batch reversed and duplicated. The final answer must
/// be byte-identical to a single daemon serving all peers on an orderly
/// loop — reordering and duplication are invisible in the answer.
TEST_F(DaemonTest, ReorderedAndDuplicatedDeliveryYieldsIdenticalAnswers) {
  TopKPolicy policy;
  LinearScorer scorer(std::vector<double>{0.7, 1.3});
  TopKQuery query;
  query.scorer = &scorer;
  query.k = 8;
  const PeerId target = 1;
  const uint64_t id = net::MakeMessageId(client_, 5);
  const std::vector<uint8_t> frame =
      ClientQueryFrame(*overlay_, policy, query, id, client_, target,
                       /*r=*/2);
  const net::Envelope env{id, client_, target, net::MessageKind::kQuery, 0,
                          {}};

  // Reference: one daemon, all peers, in-order loopback pumping.
  std::vector<uint8_t> reference;
  {
    CaptureTransport wire;
    net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire,
                                         {0, 1, 2, 3, 4, 5});
    daemon.Dispatch(net::Datagram{env, std::vector<uint8_t>(frame)});
    for (int round = 0; round < 64 && !wire.sent.empty(); ++round) {
      std::vector<net::Datagram> batch = std::move(wire.sent);
      wire.sent.clear();
      for (auto& d : batch) {
        if (net::IsClientId(d.env.to)) {
          if (d.env.kind == net::MessageKind::kAnswer) reference = d.bytes;
          continue;
        }
        daemon.Dispatch(std::move(d));
      }
    }
    ASSERT_FALSE(reference.empty());
  }

  CaptureTransport wire_a;
  CaptureTransport wire_b;
  net::PeerDaemon<MidasOverlay> a(overlay_.get(), &wire_a, {0, 1, 2});
  net::PeerDaemon<MidasOverlay> b(overlay_.get(), &wire_b, {3, 4, 5});
  std::vector<uint8_t> live;
  size_t client_answers = 0;
  a.Dispatch(net::Datagram{env, std::vector<uint8_t>(frame)});
  for (int round = 0; round < 128; ++round) {
    std::vector<net::Datagram> batch;
    for (auto* w : {&wire_a, &wire_b}) {
      for (auto& d : w->sent) batch.push_back(std::move(d));
      w->sent.clear();
    }
    if (batch.empty()) break;
    std::reverse(batch.begin(), batch.end());
    for (auto& d : batch) {
      if (net::IsClientId(d.env.to)) {
        if (d.env.kind == net::MessageKind::kAnswer) {
          client_answers += 1;
          if (live.empty()) live = d.bytes;
        }
        continue;
      }
      net::PeerDaemon<MidasOverlay>& dst = d.env.to <= 2 ? a : b;
      dst.Dispatch(net::Datagram{d.env, std::vector<uint8_t>(d.bytes)});
      dst.Dispatch(std::move(d));  // every datagram delivered twice
    }
  }
  ASSERT_FALSE(live.empty());
  EXPECT_EQ(live, reference);
  EXPECT_GE(client_answers, 1u);
  // Duplicates were seen and absorbed, not served as fresh sessions.
  EXPECT_GT(a.stats().duplicates_suppressed + b.stats().duplicates_suppressed,
            0u);
  EXPECT_GT(a.stats().late_responses + b.stats().late_responses, 0u);
}

TEST_F(DaemonTest, FinishedSessionsAreFreedOnceTheDedupWindowForgetsThem) {
  // A finished session only serves replays of its query, so once the
  // dedup window has forgotten the id the session must go too: after 32
  // queries with an 8-id window, at most 8 sessions may remain.
  CaptureTransport wire;
  net::RetryOptions retry;
  retry.dedup_window = 8;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire,
                                       {0, 1, 2, 3, 4, 5}, retry);
  TopKPolicy policy;
  LinearScorer scorer(std::vector<double>{1.0, 0.5});
  TopKQuery query;
  query.scorer = &scorer;
  query.k = 4;
  size_t answers = 0;
  for (uint32_t i = 0; i < 32; ++i) {
    const PeerId target = i % 6;
    const uint64_t id = net::MakeMessageId(client_, 100 + i);
    daemon.Dispatch(net::Datagram{
        net::Envelope{id, client_, target, net::MessageKind::kQuery, 0, {}},
        ClientQueryFrame(*overlay_, policy, query, id, client_, target,
                         /*r=*/i % 3)});
    for (int round = 0; round < 64 && !wire.sent.empty(); ++round) {
      std::vector<net::Datagram> batch = std::move(wire.sent);
      wire.sent.clear();
      for (auto& d : batch) {
        if (net::IsClientId(d.env.to)) {
          answers += d.env.kind == net::MessageKind::kAnswer ? 1 : 0;
          continue;
        }
        daemon.Dispatch(std::move(d));
      }
    }
  }
  EXPECT_EQ(answers, 32u);
  const net::QueueDepths depths = daemon.Depths();
  EXPECT_LE(depths.sessions_total, 8u);
  EXPECT_EQ(depths.pending_requests, 0u);
  EXPECT_EQ(depths.open_sessions, 0u);
  EXPECT_LE(depths.dedup_tracked, 8u);
}

/// Two daemons over one capture wire: `root` serves peer 0, where the
/// client's queries enter, and `rest` serves the others, so the root's
/// dedup window holds only client ids (no query revisits peer 0).
struct SplitDaemons {
  SplitDaemons(const MidasOverlay* overlay, net::RetryOptions retry)
      : root(overlay, &wire, {0}, retry),
        rest(overlay, &wire, {1, 2, 3, 4, 5}, retry) {}

  /// Delivers `d` and everything it causes in order; returns what the
  /// daemons sent to clients.
  std::vector<net::Datagram> Serve(net::Datagram d) {
    std::vector<net::Datagram> replies;
    wire.sent.push_back(std::move(d));
    for (int round = 0; round < 64 && !wire.sent.empty(); ++round) {
      std::vector<net::Datagram> batch = std::move(wire.sent);
      wire.sent.clear();
      for (auto& x : batch) {
        if (net::IsClientId(x.env.to)) {
          replies.push_back(std::move(x));
        } else {
          (x.env.to == 0 ? root : rest).Dispatch(std::move(x));
        }
      }
    }
    return replies;
  }

  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> root;
  net::PeerDaemon<MidasOverlay> rest;
};

TEST_F(DaemonTest, RecycledSessionSlotsReplayTheirOwnReply) {
  // With an 8-id window the cores free sessions as the windows forget
  // them, so 32 top-k queries of varied k, r and weights run through
  // recycled session slots and reply buffers. Every answer must match a
  // run that recycles nothing, and a duplicate of each of the last 8
  // client ids — still in the root's window — must replay exactly the
  // bytes that id was first answered with.
  net::RetryOptions small;
  small.dedup_window = 8;
  SplitDaemons recycled(overlay_.get(), small);
  SplitDaemons reference(overlay_.get(), net::RetryOptions{});
  TopKPolicy policy;
  std::vector<std::unique_ptr<LinearScorer>> scorers;
  std::vector<net::Datagram> queries;
  std::vector<std::vector<uint8_t>> first_reply;
  for (uint32_t i = 0; i < 32; ++i) {
    scorers.push_back(std::make_unique<LinearScorer>(
        std::vector<double>{1.0 + 0.1 * (i % 5), 0.2 + 0.3 * (i % 3)}));
    TopKQuery query;
    query.scorer = scorers.back().get();
    query.k = 1 + i % 7;
    const uint64_t id = net::MakeMessageId(client_, 100 + i);
    queries.push_back(net::Datagram{
        net::Envelope{id, client_, 0, net::MessageKind::kQuery, 0, {}},
        ClientQueryFrame(*overlay_, policy, query, id, client_, 0,
                         /*r=*/i % 3)});
    const auto got = recycled.Serve(queries.back());
    const auto want = reference.Serve(queries.back());
    ASSERT_EQ(got.size(), 1u) << "query " << i;
    ASSERT_EQ(want.size(), 1u) << "query " << i;
    EXPECT_EQ(got[0].env.kind, net::MessageKind::kAnswer);
    EXPECT_EQ(got[0].bytes, want[0].bytes) << "query " << i;
    first_reply.push_back(got[0].bytes);
  }
  EXPECT_LE(recycled.root.Depths().sessions_total, 8u);
  EXPECT_LE(recycled.rest.Depths().sessions_total, 8u);
  EXPECT_EQ(reference.root.Depths().sessions_total, 32u);

  const uint64_t served = recycled.root.stats().queries_served;
  for (uint32_t i = 24; i < 32; ++i) {
    const auto replay = recycled.Serve(queries[i]);
    ASSERT_EQ(replay.size(), 1u) << "query " << i;
    EXPECT_EQ(replay[0].bytes, first_reply[i]) << "query " << i;
  }
  EXPECT_EQ(recycled.root.stats().queries_served, served);
  EXPECT_EQ(recycled.root.stats().duplicates_suppressed, 8u);
}

TEST_F(DaemonTest, ForwardsOutstandingAtOnceKeepTheirRoutes) {
  // The root daemon maps each forward's id to its shard and slot through
  // a table indexed by the id's sequence number. Here 160 queries are all
  // open before any child answers, so far more forwards are outstanding
  // than the table starts with: it must grow without losing a route, and
  // every query must still get the answer it gets on its own.
  SplitDaemons all_open(overlay_.get(), net::RetryOptions{});
  SplitDaemons one_by_one(overlay_.get(), net::RetryOptions{});
  TopKPolicy policy;
  LinearScorer scorer(std::vector<double>{1.0, 0.5});
  TopKQuery query;
  query.scorer = &scorer;
  query.k = 3;
  constexpr uint32_t kQueries = 160;
  std::vector<std::vector<uint8_t>> want;
  size_t forwards = 0;
  for (uint32_t i = 0; i < kQueries; ++i) {
    const uint64_t id = net::MakeMessageId(client_, 300 + i);
    const net::Datagram d{
        net::Envelope{id, client_, 0, net::MessageKind::kQuery, 0, {}},
        ClientQueryFrame(*overlay_, policy, query, id, client_, 0, /*r=*/0)};
    const auto replies = one_by_one.Serve(d);
    ASSERT_EQ(replies.size(), 1u);
    want.push_back(replies[0].bytes);
    all_open.root.Dispatch(net::Datagram(d));
    forwards = all_open.wire.sent.size();
  }
  ASSERT_GT(forwards, 64u);
  EXPECT_EQ(all_open.root.Depths().pending_requests, forwards);
  std::vector<net::Datagram> held = std::move(all_open.wire.sent);
  all_open.wire.sent.clear();
  std::vector<std::vector<uint8_t>> got(kQueries);
  for (net::Datagram& d : held) {
    for (net::Datagram& reply : all_open.Serve(std::move(d))) {
      got[static_cast<uint32_t>(reply.env.id) - 300] = reply.bytes;
    }
  }
  EXPECT_EQ(all_open.root.stats().late_responses, 0u);
  for (size_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << i;
  }
}

TEST_F(DaemonTest, AckWithTrailingPayloadIsRejectedAndRestoresNoPatience) {
  // The daemon serves only peer 0, so every child forward goes unanswered
  // and is retransmitted until the budget is spent. A well-formed ack
  // would reset the forward's strikes and buy it extra retransmissions;
  // an ack with payload bytes after its header is malformed and must
  // change nothing but frames_rejected.
  net::RetryOptions retry;
  retry.timeout = 2.0;  // wall-clock ms
  retry.timeout_cap = 4.0;
  retry.max_retries = 3;
  SkylinePolicy policy;
  const uint64_t id = net::MakeMessageId(client_, 41);
  const net::Envelope env{id, client_, 0, net::MessageKind::kQuery, 0, {}};
  auto run = [&](bool bad_ack) {
    CaptureTransport wire;
    net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire, {0}, retry);
    daemon.Dispatch(net::Datagram{
        env, ClientQueryFrame(*overlay_, policy, SkylineQuery{}, id, client_,
                              0, /*r=*/2)});
    EXPECT_FALSE(wire.sent.empty());
    const net::Envelope child = wire.sent.front().env;
    bool acked = !bad_ack;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (daemon.Depths().open_sessions > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      daemon.ServeOnce(0);
      const bool retransmitted =
          std::count_if(wire.sent.begin(), wire.sent.end(),
                        [&](const net::Datagram& d) {
                          return d.env.id == child.id;
                        }) > 1;
      if (!acked && retransmitted) {
        // The child's forward has struck at least once: ack it, with one
        // stray payload byte.
        const net::Envelope ack{child.id, child.to, child.from,
                                net::MessageKind::kAck, 0, {}};
        wire::Buffer buf;
        const size_t start = net::BeginEnvelopeFrame(ack, &buf);
        buf.PutU8(0x5a);
        wire::EndFrame(&buf, start);
        daemon.Dispatch(net::Datagram{ack, buf.Take()});
        acked = true;
      }
    }
    EXPECT_EQ(daemon.Depths().open_sessions, 0u);
    EXPECT_TRUE(acked);
    return daemon.stats();
  };
  const net::DaemonStats clean = run(/*bad_ack=*/false);
  const net::DaemonStats acked = run(/*bad_ack=*/true);
  EXPECT_EQ(clean.frames_rejected, 0u);
  EXPECT_EQ(acked.frames_rejected, 1u);
  EXPECT_EQ(acked.child_requests, clean.child_requests);
  EXPECT_EQ(acked.retransmissions, clean.retransmissions);
  EXPECT_EQ(clean.retransmissions,
            clean.child_requests * static_cast<uint64_t>(retry.max_retries));
}

// ---------------------------------------------------------------------------
// End to end: daemon processes on real UDP vs the loopback simulator

uint16_t ReserveLocalPort() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

bool SameTuples(const TupleVec& a, const TupleVec& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    for (int d = 0; d < a[i].key.dims(); ++d) {
      if (a[i].key[d] != b[i].key[d]) return false;
    }
  }
  return true;
}

TEST(NetEndToEndTest, UdpOverlayMatchesLoopbackSimulator) {
  net::PeersFile pf;
  pf.config = SmallConfig();
  pf.assignments = {
      net::PeerAssignment{0, 2, {"127.0.0.1", ReserveLocalPort()}},
      net::PeerAssignment{3, 5, {"127.0.0.1", ReserveLocalPort()}},
  };
  const std::unique_ptr<MidasOverlay> overlay = net::BuildOverlay(pf.config);

  auto t1 = net::UdpSocketTransport::Open(pf, pf.assignments[0].endpoint);
  auto t2 = net::UdpSocketTransport::Open(pf, pf.assignments[1].endpoint);
  ASSERT_TRUE(t1.ok()) << t1.status().message();
  ASSERT_TRUE(t2.ok()) << t2.status().message();
  net::RetryOptions retry;  // wall-clock ms in the live overlay
  retry.timeout = 100.0;
  retry.timeout_cap = 800.0;
  net::PeerDaemon<MidasOverlay> d1(overlay.get(), t1->get(), {0, 1, 2},
                                   retry);
  net::PeerDaemon<MidasOverlay> d2(overlay.get(), t2->get(), {3, 4, 5},
                                   retry);
  std::atomic<bool> stop{false};
  std::thread th1([&] { d1.ServeLoop(stop, 5); });
  std::thread th2([&] { d2.ServeLoop(stop, 5); });

  auto client_transport =
      net::UdpSocketTransport::Open(pf, {"127.0.0.1", 0});
  ASSERT_TRUE(client_transport.ok());
  net::NetClient<MidasOverlay> client(overlay.get(), client_transport->get(),
                                      net::kClientIdBase | 1, retry);

  // Top-k: the live client reruns the simulator's analytic bootstrap
  // (route to the scorer peak, seed walk), so both executions start at
  // the same peer with the same witnessed seed state.
  LinearScorer scorer(std::vector<double>{0.4, 1.1});
  TopKQuery topk;
  topk.scorer = &scorer;
  topk.k = 6;
  {
    TopKPolicy policy;
    const PeerId initiator = 4;
    uint64_t hops = 0;
    const PeerId start = overlay->RouteFrom(
        initiator, topk.scorer->Peak(overlay->domain()), &hops);
    const TopKState seed =
        TopKSeedWalk(*overlay, policy, topk, start, nullptr);
    const auto live = client.Execute(policy, topk, start, /*r=*/0, seed);
    ASSERT_TRUE(live.complete);

    AsyncEngine<MidasOverlay, TopKPolicy> engine(overlay.get(), policy);
    QueryRequest<TopKPolicy> req;
    req.initiator = initiator;
    req.query = topk;
    req.ripple = RippleParam::Fast();
    const auto ref = SeededTopK(*overlay, engine, req);
    EXPECT_TRUE(ref.complete);
    EXPECT_TRUE(SameTuples(live.answer, ref.answer));
  }

  // Skyline, slow walk (r=2), started at the domain-origin owner.
  {
    SkylinePolicy policy;
    const PeerId initiator = 0;
    uint64_t hops = 0;
    const PeerId start =
        overlay->RouteFrom(initiator, overlay->domain().lo(), &hops);
    const auto live = client.Execute(policy, SkylineQuery{}, start, /*r=*/2,
                                     policy.InitialGlobalState({}));
    ASSERT_TRUE(live.complete);

    AsyncEngine<MidasOverlay, SkylinePolicy> engine(overlay.get(), policy);
    QueryRequest<SkylinePolicy> req;
    req.initiator = initiator;
    req.query = SkylineQuery{};
    req.ripple = RippleParam::Hops(2);
    const auto ref = SeededSkyline(*overlay, engine, req);
    EXPECT_TRUE(ref.complete);
    EXPECT_TRUE(SameTuples(live.answer, ref.answer));
  }

  // Range, no bootstrap: plain initiator, default state.
  {
    RangePolicy policy;
    RangeQuery range;
    range.center = Point(2);
    range.center[0] = 0.4;
    range.center[1] = 0.6;
    range.radius = 0.2;
    const auto live = client.Execute(policy, range, 2, /*r=*/1,
                                     policy.InitialGlobalState(range));
    ASSERT_TRUE(live.complete);

    AsyncEngine<MidasOverlay, RangePolicy> engine(overlay.get(), policy);
    QueryRequest<RangePolicy> req;
    req.initiator = 2;
    req.query = range;
    req.ripple = RippleParam::Hops(1);
    const auto ref = engine.Run(req);
    EXPECT_TRUE(ref.complete);
    EXPECT_TRUE(SameTuples(live.answer, ref.answer));
  }

  stop.store(true);
  th1.join();
  th2.join();
  EXPECT_GT(d1.stats().queries_served + d2.stats().queries_served, 0u);
  EXPECT_EQ((*t1)->malformed_dropped, 0u);
  EXPECT_EQ((*t2)->malformed_dropped, 0u);
}

}  // namespace
}  // namespace ripple
