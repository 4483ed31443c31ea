// The live monitoring plane (ctest -L monitor): the stats report codec
// (round trips, truncation and garbage rejection), the registry bridge,
// cluster aggregation, the daemon's admin probe handling over a capture
// transport, and a real-UDP scrape of a two-daemon cluster whose totals
// must agree with the daemons' own counters.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/admin.h"
#include "net/bootstrap.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/monitor.h"
#include "net/peers.h"
#include "net/protocol.h"
#include "net/udp_transport.h"
#include "obs/metrics.h"
#include "queries/range.h"
#include "queries/skyline_driver.h"

namespace ripple {
namespace {

// ---------------------------------------------------------------------------
// Admin payload codecs

/// Fills every field of a ForEach-visitable counter struct with a
/// distinct value so shifted or reordered decodes cannot pass.
template <typename S, typename Visit>
void FillDistinct(S* s, Visit visit, uint64_t base) {
  uint64_t v = base;
  visit(*s, [&](const char*, uint64_t& f) { f = v += 7; });
}

template <typename S, typename Visit>
std::vector<uint64_t> FieldValues(const S& s, Visit visit) {
  std::vector<uint64_t> out;
  visit(s, [&](const char*, const uint64_t& f) { out.push_back(f); });
  return out;
}

const auto kStatVisit = [](auto&& s, auto&& fn) {
  net::ForEachDaemonStatField(s, fn);
};
const auto kTransportVisit = [](auto&& s, auto&& fn) {
  net::ForEachTransportCounterField(s, fn);
};
const auto kDepthVisit = [](auto&& s, auto&& fn) {
  net::ForEachQueueDepthField(s, fn);
};

TEST(AdminCodecTest, CounterStructsRoundTrip) {
  net::DaemonStats stats;
  net::TransportCounters transport;
  net::QueueDepths depths;
  FillDistinct(&stats, kStatVisit, 100);
  FillDistinct(&transport, kTransportVisit, 200);
  FillDistinct(&depths, kDepthVisit, 300);

  wire::Buffer buf;
  net::EncodeDaemonStats(stats, &buf);
  net::EncodeTransportCounters(transport, &buf);
  net::EncodeQueueDepths(depths, &buf);
  const std::vector<uint8_t> bytes = buf.Take();

  wire::Reader r(bytes);
  net::DaemonStats stats2;
  net::TransportCounters transport2;
  net::QueueDepths depths2;
  ASSERT_TRUE(net::DecodeDaemonStats(&r, &stats2));
  ASSERT_TRUE(net::DecodeTransportCounters(&r, &transport2));
  ASSERT_TRUE(net::DecodeQueueDepths(&r, &depths2));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(FieldValues(stats2, kStatVisit), FieldValues(stats, kStatVisit));
  EXPECT_EQ(FieldValues(transport2, kTransportVisit),
            FieldValues(transport, kTransportVisit));
  EXPECT_EQ(FieldValues(depths2, kDepthVisit),
            FieldValues(depths, kDepthVisit));
}

TEST(AdminCodecTest, FieldCountMismatchIsRejected) {
  // A report from a daemon with a shorter field list (older build): the
  // leading count disagrees, so the decode fails instead of misreading.
  wire::Buffer buf;
  buf.PutVarint(3);
  for (int i = 0; i < 3; ++i) buf.PutVarint(9);
  const std::vector<uint8_t> bytes = buf.Take();
  wire::Reader r(bytes);
  net::DaemonStats out;
  EXPECT_FALSE(net::DecodeDaemonStats(&r, &out));
}

TEST(AdminCodecTest, StatsReportRoundTrips) {
  net::AdminStatsReport report;
  report.uptime_ms = 999;
  report.peer_lo = 3;
  report.peer_hi = 5;
  FillDistinct(&report.stats, kStatVisit, 10);
  FillDistinct(&report.transport, kTransportVisit, 20);
  FillDistinct(&report.queues, kDepthVisit, 30);

  wire::Buffer buf;
  net::EncodeStatsReport(report, &buf);
  const std::vector<uint8_t> bytes = buf.Take();

  wire::Reader r(bytes);
  net::AdminStatsReport report2;
  ASSERT_TRUE(net::DecodeStatsReport(&r, &report2));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(report2.uptime_ms, report.uptime_ms);
  EXPECT_EQ(report2.peer_lo, report.peer_lo);
  EXPECT_EQ(report2.peer_hi, report.peer_hi);
  EXPECT_EQ(FieldValues(report2.stats, kStatVisit),
            FieldValues(report.stats, kStatVisit));
  EXPECT_EQ(FieldValues(report2.transport, kTransportVisit),
            FieldValues(report.transport, kTransportVisit));
  EXPECT_EQ(FieldValues(report2.queues, kDepthVisit),
            FieldValues(report.queues, kDepthVisit));
}

TEST(AdminCodecTest, PeerIdsBeyondUint32AreRejected) {
  // peer_lo / peer_hi are 32-bit overlay ids carried as varints: a varint
  // of 2^32 must fail the decode, not wrap to 0 and re-encode to other
  // bytes.
  const net::AdminStatsReport empty;
  for (int field = 0; field < 2; ++field) {
    wire::Buffer buf;
    buf.PutVarint(7);  // uptime_ms
    buf.PutVarint(field == 0 ? uint64_t{1} << 32 : 1);
    buf.PutVarint(field == 1 ? uint64_t{1} << 32 : 2);
    net::EncodeDaemonStats(empty.stats, &buf);
    net::EncodeTransportCounters(empty.transport, &buf);
    net::EncodeQueueDepths(empty.queues, &buf);
    const std::vector<uint8_t> bytes = buf.Take();
    wire::Reader r(bytes);
    net::AdminStatsReport out;
    EXPECT_FALSE(net::DecodeStatsReport(&r, &out)) << "field " << field;
  }
  // The largest id is valid and re-encodes to the same bytes.
  net::AdminStatsReport report;
  report.peer_lo = report.peer_hi = UINT32_MAX;
  wire::Buffer buf;
  net::EncodeStatsReport(report, &buf);
  const std::vector<uint8_t> bytes = buf.Take();
  wire::Reader r(bytes);
  net::AdminStatsReport out;
  ASSERT_TRUE(net::DecodeStatsReport(&r, &out));
  EXPECT_EQ(out.peer_lo, UINT32_MAX);
  wire::Buffer again;
  net::EncodeStatsReport(out, &again);
  EXPECT_EQ(again.Take(), bytes);
}

TEST(AdminCodecTest, EveryTruncationOfAReportIsRejected) {
  net::AdminStatsReport report;
  FillDistinct(&report.stats, kStatVisit, 1000);
  FillDistinct(&report.transport, kTransportVisit, 2000);
  FillDistinct(&report.queues, kDepthVisit, 3000);
  wire::Buffer buf;
  net::EncodeStatsReport(report, &buf);
  const std::vector<uint8_t> bytes = buf.Take();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<long>(cut));
    wire::Reader r(prefix);
    net::AdminStatsReport out;
    EXPECT_FALSE(net::DecodeStatsReport(&r, &out) && r.remaining() == 0)
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(AdminCodecTest, StatsReportSurvivesGarbage) {
  // A claimed field count far beyond the struct's fails the decode
  // instead of reading past it.
  wire::Buffer buf;
  buf.PutVarint(1);  // uptime_ms
  buf.PutVarint(0);  // peer_lo
  buf.PutVarint(0);  // peer_hi
  buf.PutVarint(0xFFFFFFFFu);
  const std::vector<uint8_t> huge = buf.Take();
  wire::Reader hr(huge);
  net::AdminStatsReport out;
  EXPECT_FALSE(net::DecodeStatsReport(&hr, &out));

  // Deterministic pseudo-random byte soup: decoding must fail cleanly
  // (or at worst decode and leave residue), never crash.
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int round = 0; round < 64; ++round) {
    std::vector<uint8_t> junk(1 + round * 3);
    for (auto& b : junk) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<uint8_t>(x);
    }
    wire::Reader r(junk);
    net::AdminStatsReport rep;
    net::DecodeStatsReport(&r, &rep);  // must not crash or hang
  }
}

TEST(AdminJsonTest, JsonCarriesTheWireFieldNames) {
  net::AdminStatsReport report;
  report.uptime_ms = 5;
  report.peer_lo = 0;
  report.peer_hi = 2;
  report.stats.queries_served = 17;
  report.transport.datagrams_sent = 9;
  report.queues.open_sessions = 1;
  const std::string json = net::StatsReportJson(report);
  EXPECT_NE(json.find("\"uptime_ms\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queries_served\":17"), std::string::npos);
  EXPECT_NE(json.find("\"datagrams_sent\":9"), std::string::npos);
  EXPECT_NE(json.find("\"open_sessions\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Aggregation and the registry bridge

TEST(AdminAggregationTest, AddIntoSumsEveryField) {
  net::DaemonStats a, b, sum;
  FillDistinct(&a, kStatVisit, 0);
  FillDistinct(&b, kStatVisit, 500);
  sum = a;
  net::AddInto(&sum, b);
  const auto av = FieldValues(a, kStatVisit);
  const auto bv = FieldValues(b, kStatVisit);
  const auto sv = FieldValues(sum, kStatVisit);
  ASSERT_EQ(sv.size(), av.size());
  for (size_t i = 0; i < sv.size(); ++i) EXPECT_EQ(sv[i], av[i] + bv[i]);

  net::TransportCounters ta, tb, tsum;
  FillDistinct(&ta, kTransportVisit, 0);
  FillDistinct(&tb, kTransportVisit, 40);
  tsum = ta;
  net::AddInto(&tsum, tb);
  const auto tav = FieldValues(ta, kTransportVisit);
  const auto tbv = FieldValues(tb, kTransportVisit);
  const auto tsv = FieldValues(tsum, kTransportVisit);
  for (size_t i = 0; i < tsv.size(); ++i) EXPECT_EQ(tsv[i], tav[i] + tbv[i]);
}

TEST(StatsBridgeTest, MirrorsCountersMonotonically) {
  obs::Registry registry;
  net::StatsBridge bridge(&registry);
  net::DaemonStats s;
  s.queries_served = 5;
  bridge.SyncStats(s);
  EXPECT_EQ(registry.GetCounter("net.daemon.queries_served").value(), 5u);
  s.queries_served = 9;
  bridge.SyncStats(s);
  EXPECT_EQ(registry.GetCounter("net.daemon.queries_served").value(), 9u);
  // Counters never move backwards: a sync with a smaller value (another
  // writer raced, or a stale report) leaves the registry untouched.
  s.queries_served = 3;
  bridge.SyncStats(s);
  EXPECT_EQ(registry.GetCounter("net.daemon.queries_served").value(), 9u);

  net::TransportCounters t;
  t.datagrams_sent = 4;
  bridge.SyncTransport(t);
  EXPECT_EQ(registry.GetCounter("net.udp.datagrams_sent").value(), 4u);

  net::QueueDepths q;
  q.open_sessions = 2;
  bridge.SyncQueues(q, 123.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("net.daemon.open_sessions").value(),
                   2.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("net.daemon.uptime_ms").value(), 123.0);
  // Gauges are point-in-time: they follow the depth down again.
  q.open_sessions = 0;
  bridge.SyncQueues(q, 130.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("net.daemon.open_sessions").value(),
                   0.0);
}

// ---------------------------------------------------------------------------
// Daemon admin serving (capture transport, datagrams injected directly)

net::NetConfig SmallConfig() {
  net::NetConfig config;
  config.dataset = "uniform";
  config.peers = 6;
  config.dims = 2;
  config.tuples = 400;
  config.seed = 3;
  return config;
}

/// Transport that records every send; nothing is delivered anywhere.
class CaptureTransport : public net::Transport {
 public:
  void Send(const net::Envelope& env, std::vector<uint8_t> bytes) override {
    sent.push_back(net::Datagram{env, std::move(bytes)});
  }
  std::vector<net::Datagram> sent;
};

class AdminDaemonTest : public ::testing::Test {
 protected:
  AdminDaemonTest() : overlay_(net::BuildOverlay(SmallConfig())) {}

  static std::vector<uint8_t> AdminFrame(net::MessageKind kind, uint64_t id,
                                         PeerId from, PeerId to) {
    const net::Envelope env{id, from, to, kind, 0, {}};
    wire::Buffer buf;
    const size_t start = net::BeginEnvelopeFrame(env, &buf);
    wire::EndFrame(&buf, start);
    return buf.Take();
  }

  static net::Datagram AdminDatagram(net::MessageKind kind, uint64_t id,
                                     PeerId from, PeerId to) {
    const net::Envelope env{id, from, to, kind, 0, {}};
    return net::Datagram{env, AdminFrame(kind, id, from, to)};
  }

  std::unique_ptr<MidasOverlay> overlay_;
  const PeerId client_ = net::kClientIdBase | 2;
};

TEST_F(AdminDaemonTest, ProbeRepliesReuseTagAndId) {
  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire, {0, 1, 2});
  const uint64_t id = net::MakeMessageId(client_, 1);
  daemon.Dispatch(
      AdminDatagram(net::MessageKind::kAdminStats, id, client_, 1));
  ASSERT_EQ(wire.sent.size(), 1u);
  const net::Datagram& d = wire.sent[0];
  EXPECT_EQ(d.env.kind, net::MessageKind::kAdminStats);
  EXPECT_EQ(d.env.id, id);
  EXPECT_EQ(d.env.from, 1u);
  EXPECT_EQ(d.env.to, client_);
  wire::Reader r(d.bytes);
  net::Envelope echo;
  ASSERT_TRUE(net::DecodeEnvelopeFrame(&r, &echo));
  EXPECT_EQ(echo.kind, net::MessageKind::kAdminStats);
  net::AdminStatsReport report;
  ASSERT_TRUE(net::DecodeStatsReport(&r, &report));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(report.peer_lo, 0u);
  EXPECT_EQ(report.peer_hi, 2u);
  EXPECT_EQ(daemon.stats().admin_requests, 1u);
  EXPECT_EQ(daemon.stats().queries_served, 0u);  // probes open no sessions
}

TEST_F(AdminDaemonTest, StatsReplyMatchesTheDaemonsOwnCounters) {
  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire,
                                       {0, 1, 2, 3, 4, 5});
  net::TransportCounters fake;
  fake.datagrams_sent = 31;
  fake.bytes_received = 4096;
  daemon.SetTransportCounters([fake] { return fake; });

  // Generate real traffic first: one skyline query pumped to completion
  // over the capture loopback (the daemon serves every peer).
  SkylinePolicy policy;
  const uint64_t qid = net::MakeMessageId(client_, 5);
  const net::Envelope qenv{qid, client_, 0, net::MessageKind::kQuery, 0, {}};
  wire::Buffer qbuf;
  const size_t qstart = net::BeginEnvelopeFrame(qenv, &qbuf);
  qbuf.PutU8(static_cast<uint8_t>(net::PolicyTagOf<SkylinePolicy>::value));
  qbuf.PutZigzag(0);
  policy.EncodeQuery(SkylineQuery{}, &qbuf);
  policy.EncodeState(policy.InitialGlobalState({}), &qbuf);
  overlay_->EncodeArea(overlay_->FullArea(), &qbuf);
  wire::EndFrame(&qbuf, qstart);
  daemon.Dispatch(net::Datagram{qenv, qbuf.Take()});
  for (int round = 0; round < 64 && !wire.sent.empty(); ++round) {
    std::vector<net::Datagram> batch = std::move(wire.sent);
    wire.sent.clear();
    for (auto& d : batch) {
      if (net::IsClientId(d.env.to)) continue;
      daemon.Dispatch(std::move(d));
    }
  }
  ASSERT_GT(daemon.stats().queries_served, 0u);

  const uint64_t id = net::MakeMessageId(client_, 6);
  daemon.Dispatch(
      AdminDatagram(net::MessageKind::kAdminStats, id, client_, 0));
  ASSERT_EQ(wire.sent.size(), 1u);
  wire::Reader r(wire.sent[0].bytes);
  net::Envelope echo;
  ASSERT_TRUE(net::DecodeEnvelopeFrame(&r, &echo));
  net::AdminStatsReport report;
  ASSERT_TRUE(net::DecodeStatsReport(&r, &report));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(report.peer_lo, 0u);
  EXPECT_EQ(report.peer_hi, 5u);
  EXPECT_EQ(report.stats.queries_served, daemon.stats().queries_served);
  EXPECT_EQ(report.stats.answers_finalized, 1u);
  EXPECT_EQ(report.stats.admin_requests, 1u);  // this very probe
  EXPECT_EQ(report.transport.datagrams_sent, 31u);
  EXPECT_EQ(report.transport.bytes_received, 4096u);
  // The query finished, so nothing is in flight right now — but the
  // reply cache remembers every session it opened.
  EXPECT_EQ(report.queues.open_sessions, 0u);
  EXPECT_EQ(report.queues.pending_requests, 0u);
  EXPECT_GT(report.queues.sessions_total, 0u);
  EXPECT_GT(report.queues.dedup_tracked, 0u);
}

TEST_F(AdminDaemonTest, SyncRegistryMirrorsTheStatsReport) {
  // The registry bridge carries the same counters a probe reads, for
  // `serve --metrics-out` and its windowed snapshots; what else the
  // registry holds is left alone.
  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire, {0, 1, 2});
  obs::Registry registry;
  daemon.SetRegistry(&registry);
  registry.GetCounter("custom.probe").Inc(5);

  const uint64_t id = net::MakeMessageId(client_, 7);
  daemon.Dispatch(
      AdminDatagram(net::MessageKind::kAdminStats, id, client_, 2));
  ASSERT_EQ(wire.sent.size(), 1u);
  daemon.SyncRegistry();
  EXPECT_EQ(registry.GetCounter("custom.probe").value(), 5u);
  EXPECT_EQ(registry.GetCounter("net.daemon.admin_requests").value(), 1u);
  EXPECT_GE(registry.GetGauge("net.daemon.uptime_ms").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("net.daemon.open_sessions").value(),
                   0.0);
}

TEST_F(AdminDaemonTest, HealthReportsLiveDepths) {
  // The probe's depths are read at reply time: with a query stuck
  // mid-flight (the daemon serves only peer 0, so its forwards go
  // unanswered), the report shows the open session, every pending
  // forward and the retransmission timer armed for each.
  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire, {0});
  SkylinePolicy policy;
  const uint64_t qid = net::MakeMessageId(client_, 11);
  const net::Envelope qenv{qid, client_, 0, net::MessageKind::kQuery, 0, {}};
  wire::Buffer qbuf;
  const size_t qstart = net::BeginEnvelopeFrame(qenv, &qbuf);
  qbuf.PutU8(static_cast<uint8_t>(net::PolicyTagOf<SkylinePolicy>::value));
  qbuf.PutZigzag(0);
  policy.EncodeQuery(SkylineQuery{}, &qbuf);
  policy.EncodeState(policy.InitialGlobalState({}), &qbuf);
  overlay_->EncodeArea(overlay_->FullArea(), &qbuf);
  wire::EndFrame(&qbuf, qstart);
  daemon.Dispatch(net::Datagram{qenv, qbuf.Take()});
  const uint64_t forwards = daemon.stats().child_requests;
  ASSERT_GT(forwards, 0u);
  wire.sent.clear();

  const uint64_t id = net::MakeMessageId(client_, 8);
  daemon.Dispatch(
      AdminDatagram(net::MessageKind::kAdminStats, id, client_, 0));
  ASSERT_EQ(wire.sent.size(), 1u);
  wire::Reader r(wire.sent[0].bytes);
  net::Envelope echo;
  ASSERT_TRUE(net::DecodeEnvelopeFrame(&r, &echo));
  net::AdminStatsReport report;
  ASSERT_TRUE(net::DecodeStatsReport(&r, &report));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(report.stats.queries_served, 1u);
  EXPECT_EQ(report.queues.open_sessions, 1u);
  EXPECT_EQ(report.queues.sessions_total, 1u);
  EXPECT_EQ(report.queues.pending_requests, forwards);
  EXPECT_EQ(report.queues.timers_pending, forwards);
}

TEST_F(AdminDaemonTest, DuplicateProbesAreAnsweredWithoutDedup) {
  // Admin reads are idempotent, so the daemon answers every copy instead
  // of suppressing duplicates — a monitor retrying a lost reply must get
  // a fresh one even though the message id repeats.
  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire, {0, 1, 2});
  const uint64_t id = net::MakeMessageId(client_, 9);
  daemon.Dispatch(
      AdminDatagram(net::MessageKind::kAdminStats, id, client_, 0));
  daemon.Dispatch(
      AdminDatagram(net::MessageKind::kAdminStats, id, client_, 0));
  EXPECT_EQ(wire.sent.size(), 2u);
  EXPECT_EQ(daemon.stats().admin_requests, 2u);
  EXPECT_EQ(daemon.stats().duplicates_suppressed, 0u);
}

TEST_F(AdminDaemonTest, RejectsPayloadBearingAndMisdeliveredProbes) {
  CaptureTransport wire;
  net::PeerDaemon<MidasOverlay> daemon(overlay_.get(), &wire, {0, 1, 2});

  // Admin requests are empty-payload by contract; stray bytes mean a
  // confused (or malicious) sender, counted and dropped without a reply.
  const uint64_t id = net::MakeMessageId(client_, 10);
  const net::Envelope env{id, client_, 0, net::MessageKind::kAdminStats, 0,
                          {}};
  wire::Buffer buf;
  const size_t start = net::BeginEnvelopeFrame(env, &buf);
  buf.PutU8(0xAB);
  wire::EndFrame(&buf, start);
  daemon.Dispatch(net::Datagram{env, buf.Take()});
  EXPECT_EQ(daemon.stats().frames_rejected, 1u);
  EXPECT_TRUE(wire.sent.empty());

  // A probe for a peer this process does not serve.
  daemon.Dispatch(
      AdminDatagram(net::MessageKind::kAdminStats, id + 1, client_, 5));
  EXPECT_EQ(daemon.stats().misdelivered, 1u);
  EXPECT_TRUE(wire.sent.empty());
  EXPECT_EQ(daemon.stats().admin_requests, 0u);
}

// ---------------------------------------------------------------------------
// Cluster monitor over real UDP

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

TEST(ClusterMonitorTest, ScrapesALiveTwoDaemonCluster) {
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
  net::RetryOptions retry;
  retry.timeout = 100.0;
  retry.timeout_cap = 800.0;
  net::PeerDaemon<MidasOverlay> d1(overlay.get(), t1->get(), {0, 1, 2},
                                   retry);
  net::PeerDaemon<MidasOverlay> d2(overlay.get(), t2->get(), {3, 4, 5},
                                   retry);
  d1.SetTransportCounters([&] { return (*t1)->Counters(); });
  d2.SetTransportCounters([&] { return (*t2)->Counters(); });
  std::atomic<bool> stop{false};
  std::thread th1([&] { d1.ServeLoop(stop, 5); });
  std::thread th2([&] { d2.ServeLoop(stop, 5); });

  auto mon_transport = net::UdpSocketTransport::Open(pf, {"127.0.0.1", 0});
  ASSERT_TRUE(mon_transport.ok());
  net::ClusterMonitor monitor(pf, mon_transport->get(),
                              net::kClientIdBase | 2, {});
  ASSERT_TRUE(monitor.WaitHealthy(5000));

  // One real query so the scrape sees query-protocol counters, not an
  // idle cluster. The client uses a different synthetic id than the
  // monitor, so each gets its own learned return address.
  auto client_transport = net::UdpSocketTransport::Open(pf, {"127.0.0.1", 0});
  ASSERT_TRUE(client_transport.ok());
  net::NetClient<MidasOverlay> client(overlay.get(), client_transport->get(),
                                      net::kClientIdBase | 1, retry);
  RangePolicy policy;
  RangeQuery range;
  range.center = Point(2);
  range.center[0] = 0.4;
  range.center[1] = 0.6;
  range.radius = 0.2;
  const auto live = client.Execute(policy, range, 2, /*r=*/1,
                                   policy.InitialGlobalState(range));
  ASSERT_TRUE(live.complete);

  net::ClusterSample sample = monitor.Scrape(100.0);
  EXPECT_EQ(sample.totals.endpoints, 2u);
  EXPECT_EQ(sample.totals.healthy, 2u);
  ASSERT_EQ(sample.endpoints.size(), 2u);
  uint64_t peers_reported = 0;
  for (const auto& es : sample.endpoints) {
    EXPECT_TRUE(es.healthy);
    EXPECT_GT(es.rtt_ms, 0.0);
    peers_reported += es.report.peer_hi - es.report.peer_lo + 1;
  }
  EXPECT_EQ(peers_reported, 6u);
  EXPECT_EQ(sample.totals.stats.answers_finalized, 1u);
  EXPECT_GT(sample.totals.stats.queries_served, 0u);
  EXPECT_GT(sample.totals.transport.datagrams_received, 0u);
  EXPECT_EQ(sample.totals.queues.open_sessions, 0u);
  EXPECT_GT(sample.totals.load_skew.peak_to_mean, 0.0);

  // A second sample windows QPS against the first; nothing ran between
  // them, so the delta is zero.
  const net::ClusterSample again = monitor.Scrape(200.0);
  EXPECT_EQ(again.totals.healthy, 2u);
  EXPECT_DOUBLE_EQ(again.totals.qps, 0.0);

  stop.store(true);
  th1.join();
  th2.join();
  // The scraped totals are the daemons' own counters, summed — exact on
  // every field except admin_requests (the scrape itself bumps it while
  // the probes are in flight).
  const net::DaemonStats sum_after = [&] {
    net::DaemonStats s = d1.stats();
    net::AddInto(&s, d2.stats());
    return s;
  }();
  EXPECT_EQ(sample.totals.stats.queries_served, sum_after.queries_served);
  EXPECT_EQ(sample.totals.stats.answers_finalized,
            sum_after.answers_finalized);
  EXPECT_EQ(sample.totals.stats.replies_sent, sum_after.replies_sent);
  EXPECT_EQ(sample.totals.stats.frames_rejected, sum_after.frames_rejected);

  // The dashboard and JSONL renderings of the live sample.
  const std::string dash = net::ClusterMonitor::Dashboard(sample);
  EXPECT_NE(dash.find("2/2 healthy"), std::string::npos) << dash;
  const std::string json = net::ClusterMonitor::SampleToJson(sample);
  EXPECT_NE(json.find("\"healthy\":true"), std::string::npos);
  EXPECT_NE(json.find("\"totals\":{"), std::string::npos);
  EXPECT_NE(json.find("\"queries_served\":"), std::string::npos);
}

TEST(ClusterMonitorTest, SilentEndpointIsUnhealthyAndWaitTimesOut) {
  // One live daemon, one endpoint where nothing listens: the scrape
  // marks the silent process DOWN and its (zero) counters stay out of
  // the totals; WaitHealthy refuses to declare the cluster ready.
  net::PeersFile pf;
  pf.config = SmallConfig();
  pf.assignments = {
      net::PeerAssignment{0, 2, {"127.0.0.1", ReserveLocalPort()}},
      net::PeerAssignment{3, 5, {"127.0.0.1", ReserveLocalPort()}},
  };
  const std::unique_ptr<MidasOverlay> overlay = net::BuildOverlay(pf.config);
  auto t1 = net::UdpSocketTransport::Open(pf, pf.assignments[0].endpoint);
  ASSERT_TRUE(t1.ok()) << t1.status().message();
  net::PeerDaemon<MidasOverlay> d1(overlay.get(), t1->get(), {0, 1, 2});
  std::atomic<bool> stop{false};
  std::thread th1([&] { d1.ServeLoop(stop, 5); });

  auto mon_transport = net::UdpSocketTransport::Open(pf, {"127.0.0.1", 0});
  ASSERT_TRUE(mon_transport.ok());
  net::MonitorOptions opts;
  opts.probe_timeout_ms = 50;
  opts.probe_attempts = 1;
  net::ClusterMonitor monitor(pf, mon_transport->get(),
                              net::kClientIdBase | 2, opts);
  EXPECT_FALSE(monitor.WaitHealthy(300));

  const net::ClusterSample sample = monitor.Scrape(50.0);
  EXPECT_EQ(sample.totals.endpoints, 2u);
  EXPECT_EQ(sample.totals.healthy, 1u);
  ASSERT_EQ(sample.endpoints.size(), 2u);
  EXPECT_TRUE(sample.endpoints[0].healthy);
  EXPECT_FALSE(sample.endpoints[1].healthy);
  EXPECT_EQ(sample.endpoints[1].report.stats.queries_served, 0u);
  const std::string dash = net::ClusterMonitor::Dashboard(sample);
  EXPECT_NE(dash.find("DOWN"), std::string::npos) << dash;
  EXPECT_NE(dash.find("1/2 healthy"), std::string::npos);
  const std::string json = net::ClusterMonitor::SampleToJson(sample);
  EXPECT_NE(json.find("\"healthy\":false"), std::string::npos);

  stop.store(true);
  th1.join();
}

}  // namespace
}  // namespace ripple
