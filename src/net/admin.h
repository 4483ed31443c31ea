#ifndef RIPPLE_NET_ADMIN_H_
#define RIPPLE_NET_ADMIN_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "wire/buffer.h"

namespace ripple::net {

/// The admin plane: the one monitoring probe a daemon answers out of its
/// serve loop (MessageKind::kAdminStats, tag 4, docs/NET.md). A request
/// carries an empty payload; the reply reuses the request's tag and
/// message id and carries an AdminStatsReport. Every counter struct has a
/// ForEach*Field visitor so the wire codec, the JSON export, the registry
/// bridge and the monitor's cluster aggregation all iterate the exact
/// same field list in the exact same order — adding a counter in one
/// place adds it everywhere, and the field names match across wire, JSON
/// and metrics.

/// Counters a daemon accumulates over its lifetime; dumped on shutdown
/// and scraped live via kAdminStats. Transport-level drops
/// (malformed/oversize/unknown sender) live on the UdpSocketTransport
/// (TransportCounters below); these cover the protocol layer above it.
struct DaemonStats {
  uint64_t queries_served = 0;      // sessions opened
  uint64_t replies_sent = 0;        // reply datagrams (first transmission)
  uint64_t answers_finalized = 0;   // client-facing answers produced
  uint64_t child_requests = 0;      // query forwards issued
  uint64_t retransmissions = 0;     // re-sent query forwards + replies
  uint64_t acks_sent = 0;
  uint64_t duplicates_suppressed = 0;  // dedup hits on incoming queries
  uint64_t late_responses = 0;      // responses after give-up / dup responses
  uint64_t links_unresolved = 0;    // child subtrees abandoned
  uint64_t frames_rejected = 0;     // well-framed but undecodable payloads
  uint64_t misdelivered = 0;        // frames for peers this process lacks
  uint64_t admin_requests = 0;      // admin probes answered (observer plane;
                                    // scraping a daemon perturbs only this)
};

/// `S` is `DaemonStats&` or `const DaemonStats&`; `fn(name, field)`.
template <typename S, typename Fn>
void ForEachDaemonStatField(S&& s, Fn&& fn) {
  fn("queries_served", s.queries_served);
  fn("replies_sent", s.replies_sent);
  fn("answers_finalized", s.answers_finalized);
  fn("child_requests", s.child_requests);
  fn("retransmissions", s.retransmissions);
  fn("acks_sent", s.acks_sent);
  fn("duplicates_suppressed", s.duplicates_suppressed);
  fn("late_responses", s.late_responses);
  fn("links_unresolved", s.links_unresolved);
  fn("frames_rejected", s.frames_rejected);
  fn("misdelivered", s.misdelivered);
  fn("admin_requests", s.admin_requests);
}

/// Point-in-time copy of UdpSocketTransport's datagram counters (field
/// order mirrors the transport's declaration). A daemon snapshots these
/// through a pull hook so admin replies and the registry bridge see live
/// values without net/ depending on the concrete transport.
struct TransportCounters {
  uint64_t datagrams_sent = 0;
  uint64_t datagrams_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t send_failures = 0;
  uint64_t oversize_dropped = 0;
  uint64_t malformed_dropped = 0;
  uint64_t unknown_peer_dropped = 0;
};

template <typename S, typename Fn>
void ForEachTransportCounterField(S&& s, Fn&& fn) {
  fn("datagrams_sent", s.datagrams_sent);
  fn("datagrams_received", s.datagrams_received);
  fn("bytes_sent", s.bytes_sent);
  fn("bytes_received", s.bytes_received);
  fn("send_failures", s.send_failures);
  fn("oversize_dropped", s.oversize_dropped);
  fn("malformed_dropped", s.malformed_dropped);
  fn("unknown_peer_dropped", s.unknown_peer_dropped);
}

/// Instantaneous queue/table depths — the "how loaded is it right now"
/// half of a stats reply (DaemonStats is the monotone half).
struct QueueDepths {
  uint64_t open_sessions = 0;     // sessions started but not finished
  uint64_t sessions_total = 0;    // sessions held: open + replayable
  uint64_t pending_requests = 0;  // child forwards awaiting a response
  uint64_t timers_pending = 0;    // armed retransmission timers
  uint64_t dedup_tracked = 0;     // message ids in the dedup window
};

template <typename S, typename Fn>
void ForEachQueueDepthField(S&& s, Fn&& fn) {
  fn("open_sessions", s.open_sessions);
  fn("sessions_total", s.sessions_total);
  fn("pending_requests", s.pending_requests);
  fn("timers_pending", s.timers_pending);
  fn("dedup_tracked", s.dedup_tracked);
}

/// kAdminStats reply: the full counter scrape.
struct AdminStatsReport {
  uint64_t uptime_ms = 0;
  uint32_t peer_lo = 0;  // lowest / highest overlay id this daemon serves
  uint32_t peer_hi = 0;
  DaemonStats stats;
  TransportCounters transport;
  QueueDepths queues;
};

// --- wire codecs (payload only; the envelope frame wraps them) -----------
// Counter structs travel as a varint field count followed by the fields
// in ForEach order; a count mismatch fails the reader, so a report from a
// daemon with a different field list is rejected, never misread.

void EncodeDaemonStats(const DaemonStats& s, wire::Buffer* buf);
bool DecodeDaemonStats(wire::Reader* r, DaemonStats* s);
void EncodeTransportCounters(const TransportCounters& t, wire::Buffer* buf);
bool DecodeTransportCounters(wire::Reader* r, TransportCounters* t);
void EncodeQueueDepths(const QueueDepths& q, wire::Buffer* buf);
bool DecodeQueueDepths(wire::Reader* r, QueueDepths* q);

/// The report is uptime, peer_lo and peer_hi as varints (a peer id
/// above UINT32_MAX fails the decode), then the three counter structs.
void EncodeStatsReport(const AdminStatsReport& s, wire::Buffer* buf);
bool DecodeStatsReport(wire::Reader* r, AdminStatsReport* s);

// --- JSON (object fragments; field names identical to the wire and
// registry names, so `serve --stats-out` and the monitor's series agree)

std::string DaemonStatsJson(const DaemonStats& s);
std::string TransportCountersJson(const TransportCounters& t);
std::string QueueDepthsJson(const QueueDepths& q);
std::string StatsReportJson(const AdminStatsReport& s);

// --- cluster aggregation (the monitor sums per-daemon reports) -----------

void AddInto(DaemonStats* into, const DaemonStats& s);
void AddInto(TransportCounters* into, const TransportCounters& t);
void AddInto(QueueDepths* into, const QueueDepths& q);

/// Mirrors a daemon's counters into an obs::Registry so they appear in
/// --metrics-out and windowed snapshots, not only at shutdown. Counters
/// land as `net.daemon.<field>` / `net.udp.<field>` (monotone: each sync
/// bumps the registry counter up to the daemon's current value — the
/// daemon is the only writer of these names); depths land as
/// `net.daemon.<field>` gauges.
class StatsBridge {
 public:
  explicit StatsBridge(obs::Registry* registry) : registry_(registry) {}

  void SyncStats(const DaemonStats& s);
  void SyncTransport(const TransportCounters& t);
  void SyncQueues(const QueueDepths& q, double uptime_ms);

 private:
  obs::Registry* registry_;
};

}  // namespace ripple::net

#endif  // RIPPLE_NET_ADMIN_H_
