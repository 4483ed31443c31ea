#ifndef RIPPLE_NET_DAEMON_H_
#define RIPPLE_NET_DAEMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/log.h"
#include "net/admin.h"
#include "net/envelope.h"
#include "net/fault.h"
#include "net/peers.h"
#include "net/protocol.h"
#include "net/transport.h"
#include "obs/sink.h"
#include "ripple/peer_core.h"
#include "ripple/timer_queue.h"

namespace ripple::net {

/// One process of the live overlay: serves the rank-query protocol for
/// the peers assigned to it, over a Transport (UDP in production, any
/// Transport in tests). The daemon is the wall-time driver of the same
/// per-peer core the simulator drives (ripple/peer_core.h): it decodes
/// datagrams, routes them to one core per policy (live query frames carry
/// a PolicyTag byte; docs/NET.md), and runs the core's timers on
/// steady_clock milliseconds.
///
/// Answers convergecast up the query tree inside reply datagrams — each
/// session merges its children's partial answers with its own local
/// answer — so the peer serving the client folds the complete answer and
/// ships it back in one datagram; the client's own retransmissions cover
/// its loss. Every policy's FinalizeAnswer canonicalizes order, which is
/// what makes the tree-merge byte-identical to the simulator's flat merge.
///
/// Memory is bounded by the dedup window: a finished session is freed
/// once the window forgets its query id (it could never be replayed), and
/// a forward is dropped once it resolves or gives up.
///
/// Single-threaded: one thread owns the daemon and pumps ServeLoop (or
/// ServeOnce / Dispatch in tests).
template <typename Overlay>
class PeerDaemon {
 public:
  /// `local_peers`: the overlay ids this process serves (from
  /// PeersFile::PeersAt on its endpoint). `retry` is interpreted in
  /// milliseconds (the simulator reads the same struct in hops).
  PeerDaemon(const Overlay* overlay, Transport* transport,
             std::vector<PeerId> local_peers, RetryOptions retry = {})
      : overlay_(overlay),
        transport_(transport),
        retry_(retry),
        dedup_(retry.dedup_window),
        local_peers_(local_peers.begin(), local_peers.end()),
        start_(std::chrono::steady_clock::now()),
        topk_(this),
        skyline_(this),
        skyband_(this),
        range_(this) {}

  /// Attaches the observability sink (not owned). Its journal records
  /// every query frame the daemon sends or receives, sampled or not (live
  /// clients do not sample); admin frames stay out of it.
  void SetSink(const obs::Sink& sink) { sink_ = sink; }

  /// Mirrors the daemon's counters into `registry` (SyncRegistry drives
  /// the sync), so `serve --metrics-out` and windowed snapshots carry
  /// net.daemon.* / net.udp.* live.
  void SetRegistry(obs::Registry* registry) { registry_ = registry; }

  /// Pull hook for the transport's datagram counters (the daemon only
  /// knows the abstract Transport; `serve` passes a lambda reading its
  /// UdpSocketTransport). Feeds stats replies and the registry bridge.
  void SetTransportCounters(std::function<TransportCounters()> fn) {
    transport_counters_ = std::move(fn);
  }

  const DaemonStats& stats() const { return stats_; }
  /// Retransmission timers, on the daemon's UptimeMs clock.
  TimerQueue& timers() { return timers_; }

  double UptimeMs() const { return NowMs(); }

  /// Instantaneous queue/table depths (the kAdminStats "right now" half),
  /// read off the cores' tables.
  QueueDepths Depths() const {
    QueueDepths q;
    auto add = [&q](const auto& shard) {
      q.open_sessions += shard.core.open_sessions();
      q.sessions_total += shard.core.sessions_held();
      q.pending_requests += shard.core.pending_forwards();
    };
    add(topk_);
    add(skyline_);
    add(skyband_);
    add(range_);
    q.timers_pending = timers_.pending();
    q.dedup_tracked = dedup_.size();
    return q;
  }

  /// The full counter scrape: what a kAdminStats reply carries and what
  /// `serve --stats-out` writes at shutdown (same fields, same names).
  AdminStatsReport StatsReport() const {
    AdminStatsReport rep;
    rep.uptime_ms = static_cast<uint64_t>(NowMs());
    rep.peer_lo = *std::min_element(local_peers_.begin(), local_peers_.end());
    rep.peer_hi = *std::max_element(local_peers_.begin(), local_peers_.end());
    rep.stats = stats_;
    if (transport_counters_) rep.transport = transport_counters_();
    rep.queues = Depths();
    return rep;
  }

  /// Pushes current counters/depths into the registry (no-op without
  /// SetRegistry). Callers: serve's periodic snapshot capture and the
  /// shutdown --metrics-out flush.
  void SyncRegistry() {
    if (registry_ == nullptr) return;
    StatsBridge bridge(registry_);
    bridge.SyncStats(stats_);
    if (transport_counters_) bridge.SyncTransport(transport_counters_());
    bridge.SyncQueues(Depths(), NowMs());
  }

  /// One pump iteration: run due timers, wait up to `max_wait_ms` for a
  /// datagram (bounded by the next timer), dispatch everything readable.
  /// Returns the number of datagrams handled.
  int ServeOnce(int max_wait_ms) {
    timers_.RunDue(NowMs());
    const double until_next = timers_.NextAt() - NowMs();  // inf: none
    int wait = max_wait_ms;
    if (until_next < max_wait_ms) {
      wait = until_next <= 0 ? 0 : static_cast<int>(until_next) + 1;
    }
    int handled = 0;
    Datagram d;
    while (transport_->Poll(&d, handled == 0 ? wait : 0)) {
      Dispatch(std::move(d));
      handled += 1;
    }
    timers_.RunDue(NowMs());
    return handled;
  }

  /// Serves until `*stop` turns true (a signal handler's flag).
  void ServeLoop(const std::atomic<bool>& stop, int tick_ms = 50) {
    while (!stop.load(std::memory_order_relaxed)) ServeOnce(tick_ms);
  }

  /// Protocol entry point, public so tests can inject datagrams (with
  /// reordering, duplication, truncation) without a socket.
  void Dispatch(Datagram d) {
    switch (d.env.kind) {
      case MessageKind::kQuery:
        HandleQuery(d);
        break;
      case MessageKind::kResponse:
        WithShard(OwnerOf(d.env.id),
                  [&d](auto& shard) { shard.core.OnResponse(d.env, d.bytes); });
        break;
      case MessageKind::kAck:
        WithShard(OwnerOf(d.env.id),
                  [&d](auto& shard) { shard.core.OnAck(d.env.id, d.bytes); });
        break;
      case MessageKind::kAnswer:
        // Bare answers address clients; a daemon receiving one saw a
        // misrouted or stale datagram.
        stats_.misdelivered += 1;
        break;
      case MessageKind::kAdminStats:
        HandleAdmin(d);
        break;
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// The wall-time driver of one policy's core: the hooks PeerCore calls,
  /// forwarding to the daemon's clock, timers, transport and counters.
  template <typename Policy>
  struct Shard {
    using Core = PeerCore<Overlay, Policy, Shard>;
    using Session = typename Core::Session;
    /// Answers fold up the query tree; the root replies to its client.
    static constexpr bool kConvergecast = true;

    explicit Shard(PeerDaemon* daemon)
        : d(daemon), core(d->overlay_, &policy, this) {}

    PeerDaemon* d;
    Policy policy;
    Core core;

    double Now() const { return d->NowMs(); }
    uint64_t ArmTimer(double delay_ms, std::function<void()> fn) {
      return d->timers_.Arm(d->NowMs() + delay_ms, std::move(fn));
    }
    void CancelTimer(uint64_t id) { d->timers_.Cancel(id); }
    bool retransmits() const { return true; }
    const RetryOptions& retry() const { return d->retry_; }
    const obs::Sink& sink() const { return d->sink_; }
    /// The transport takes ownership, so the borrowed bytes are copied.
    void Send(const Envelope& env, std::span<const uint8_t> bytes) {
      d->transport_->Send(env,
                          std::vector<uint8_t>(bytes.begin(), bytes.end()));
    }
    template <typename... Args>
    void EncodeQuery(const Args&... args) {
      EncodeLiveQuery(args...);
    }
    uint64_t NewRequestId(const Session& requester, uint64_t forward) {
      return d->NewForwardId(requester.peer, PolicyTagOf<Policy>::value,
                             forward);
    }
    uint64_t ForwardOf(uint64_t id) const {
      const Route* r = d->RouteOf(id);
      return r != nullptr && r->tag == PolicyTagOf<Policy>::value ? r->forward
                                                                  : 0;
    }
    void Remember(const Envelope& env, uint64_t session) {
      d->Remember(env.id, session, PolicyTagOf<Policy>::value);
    }
    bool Alive(PeerId) const { return true; }
    void RejectFrame(bool) { d->stats_.frames_rejected += 1; }
    void OnSessionOpened(const Session&) { d->stats_.queries_served += 1; }
    void OnQuerySent(const PendingRequest& rq) {
      if (rq.attempt == 1) d->stats_.child_requests += 1;
      d->sink_.Charge(rq.from, rq.target, 0, rq.frame.size(), rq.attempt > 1);
    }
    void OnReplySent(const Session& s, bool retransmit) {
      (retransmit ? d->stats_.retransmissions : d->stats_.replies_sent) += 1;
      d->sink_.Charge(s.peer, s.requester, 0, s.reply.size(), retransmit);
    }
    void OnAckSent(const Session&, size_t) { d->stats_.acks_sent += 1; }
    void OnTimeout(const PendingRequest&, bool retrying) {
      if (retrying) d->stats_.retransmissions += 1;
    }
    void OnGiveUp(const PendingRequest& rq) {
      d->stats_.links_unresolved += 1;
      RIPPLE_LOG(kWarn, "net: giving up on peer %u after %d attempts",
                 rq.target, rq.attempt);
    }
    void OnStaleResponse(uint64_t) { d->stats_.late_responses += 1; }
    void OnRootFinished() { d->stats_.answers_finalized += 1; }
  };

  template <typename F>
  void WithShard(PolicyTag tag, F&& f) {
    switch (tag) {
      case PolicyTag::kTopK: f(topk_); break;
      case PolicyTag::kSkyline: f(skyline_); break;
      case PolicyTag::kSkyband: f(skyband_); break;
      case PolicyTag::kRange: f(range_); break;
    }
  }

  /// The shard whose forward `id` is. Frames for ids this daemon never
  /// sent go to the top-k shard, whose core counts a response as late and
  /// still checks and journals an ack.
  PolicyTag OwnerOf(uint64_t id) const {
    const Route* r = RouteOf(id);
    return r != nullptr ? r->tag : PolicyTag::kTopK;
  }

  // --- forward ids ----------------------------------------------------------

  /// Where a forward this daemon sent lives: its shard, and its handle in
  /// that shard's core. `routes_` is indexed by the low bits of the id's
  /// sequence number; the daemon numbers its forwards consecutively, so
  /// the live ones collide only when more than the table's size apart,
  /// and then the table doubles.
  struct Route {
    uint64_t id = 0;
    uint64_t forward = 0;  // 0: never used
    PolicyTag tag = PolicyTag::kTopK;
  };

  uint64_t NewForwardId(PeerId sender, PolicyTag tag, uint64_t forward) {
    const uint32_t seq = next_seq_++;
    while (RouteLive(routes_[seq & (routes_.size() - 1)])) GrowRoutes();
    const uint64_t id = MakeMessageId(sender, seq);
    routes_[seq & (routes_.size() - 1)] = Route{id, forward, tag};
    return id;
  }

  /// The route of forward `id`, or nullptr when its entry was overwritten
  /// (the forward long gone) or the id is not this daemon's.
  const Route* RouteOf(uint64_t id) const {
    const Route& r = routes_[static_cast<uint32_t>(id) & (routes_.size() - 1)];
    return r.forward != 0 && r.id == id ? &r : nullptr;
  }

  bool RouteLive(const Route& r) {
    bool live = false;
    if (r.forward != 0) {
      WithShard(r.tag,
                [&](auto& shard) { live = shard.core.Holds(r.forward); });
    }
    return live;
  }

  /// Doubles the table until every live forward has a slot of its own.
  void GrowRoutes() {
    std::vector<Route> old = std::move(routes_);
    for (size_t n = old.size() * 2;; n *= 2) {
      routes_.assign(n, Route{});
      bool placed = true;
      for (const Route& r : old) {
        if (!RouteLive(r)) continue;
        Route& slot = routes_[static_cast<uint32_t>(r.id) & (n - 1)];
        if (slot.forward != 0) {
          placed = false;
          break;
        }
        slot = r;
      }
      if (placed) return;
    }
  }

  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  /// Enters a session's query id into the dedup window; the session whose
  /// id this pushes out can never be replayed again, so its core frees it.
  void Remember(uint64_t id, uint64_t session, PolicyTag tag) {
    int64_t evicted = 0;
    if (!dedup_.Insert(id, static_cast<int64_t>(session << 8) |
                               static_cast<int64_t>(tag),
                       &evicted)) {
      return;
    }
    WithShard(static_cast<PolicyTag>(evicted & 0xff),
              [evicted](auto& shard) { shard.core.Forget(evicted >> 8); });
  }

  // --- admin plane --------------------------------------------------------

  /// Answers one monitoring probe with StatsReport(). Requests are
  /// empty-payload frames; any payload bytes mean a corrupt or foreign
  /// frame, counted and dropped exactly like an undecodable query. The
  /// reply reuses the request's kind and id (the monitor correlates by
  /// id, like the query protocol) and flows through the normal Send path.
  /// No dedup: admin reads are idempotent, so answering a duplicated
  /// probe twice is harmless. Admin traffic stays out of the journals —
  /// they record the query protocol, and trace assembly must not see recv
  /// events whose send side lives in another process's (unjournaled)
  /// monitor.
  void HandleAdmin(const Datagram& d) {
    if (local_peers_.find(d.env.to) == local_peers_.end()) {
      stats_.misdelivered += 1;
      return;
    }
    wire::Reader r(d.bytes);
    Envelope env;
    if (!DecodeEnvelopeFrame(&r, &env) || r.remaining() != 0) {
      stats_.frames_rejected += 1;
      return;
    }
    stats_.admin_requests += 1;
    const Envelope reply{env.id, env.to, env.from, MessageKind::kAdminStats,
                         0, env.trace};
    wire::Buffer buf;
    const size_t start = BeginEnvelopeFrame(reply, &buf);
    EncodeStatsReport(StatsReport(), &buf);
    wire::EndFrame(&buf, start);
    transport_->Send(reply, buf.Take());
  }

  // --- incoming queries --------------------------------------------------

  void HandleQuery(const Datagram& d) {
    if (local_peers_.find(d.env.to) == local_peers_.end()) {
      stats_.misdelivered += 1;
      return;
    }
    if (const int64_t* slot = dedup_.Lookup(d.env.id)) {
      // Retransmission or network duplicate: the core replays the cached
      // reply of a finished session, or acks a running one.
      stats_.duplicates_suppressed += 1;
      const int64_t v = *slot;
      WithShard(static_cast<PolicyTag>(v & 0xff),
                [v](auto& shard) { shard.core.Replay(v >> 8); });
      return;
    }
    wire::Reader r(d.bytes);
    Envelope env;
    if (!DecodeEnvelopeFrame(&r, &env)) {
      stats_.frames_rejected += 1;
      return;
    }
    const uint8_t raw_tag = r.U8();
    if (!r.ok() || !ValidPolicyTag(raw_tag)) {
      stats_.frames_rejected += 1;
      return;
    }
    WithShard(static_cast<PolicyTag>(raw_tag), [&](auto& shard) {
      shard.core.OnQuery(env, &r, d.bytes.size());
    });
  }

  const Overlay* overlay_;
  Transport* transport_;
  RetryOptions retry_;
  DedupWindow dedup_;
  std::unordered_set<PeerId> local_peers_;
  Clock::time_point start_;
  obs::Sink sink_;
  obs::Registry* registry_ = nullptr;
  std::function<TransportCounters()> transport_counters_;
  TimerQueue timers_;
  DaemonStats stats_;
  uint32_t next_seq_ = 1;
  std::vector<Route> routes_ = std::vector<Route>(64);
  Shard<TopKPolicy> topk_;
  Shard<SkylinePolicy> skyline_;
  Shard<SkybandPolicy> skyband_;
  Shard<RangePolicy> range_;
};

}  // namespace ripple::net

#endif  // RIPPLE_NET_DAEMON_H_
