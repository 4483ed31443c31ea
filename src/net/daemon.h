#ifndef RIPPLE_NET_DAEMON_H_
#define RIPPLE_NET_DAEMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
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
#include "obs/journal.h"
#include "obs/profile.h"
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

  void SetJournal(obs::JournalSet* journal) { journal_ = journal; }
  void SetProfiler(obs::Profiler* profiler) { profiler_ = profiler; }

  /// Mirrors the daemon's counters into `registry` (SyncRegistry / admin
  /// snapshot requests drive the sync), so `serve --metrics-out` and
  /// windowed snapshots carry net.daemon.* / net.udp.* live.
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
      q.pending_requests += shard.core.pending().size();
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
  /// SetRegistry). Callers: admin snapshot requests, serve's periodic
  /// snapshot capture, and the shutdown --metrics-out flush.
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
      case MessageKind::kAdminPing:
      case MessageKind::kAdminStats:
      case MessageKind::kAdminSnapshot:
      case MessageKind::kAdminHealth:
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
    obs::Tracer* tracer() const { return nullptr; }
    obs::Profiler* profiler() const { return d->profiler_; }
    obs::JournalSet* journal() const { return d->journal_; }
    const std::function<double(PeerId)>* link_bias() const { return nullptr; }
    void Send(const Envelope& env, std::vector<uint8_t> bytes) {
      d->transport_->Send(env, std::move(bytes));
    }
    template <typename... Args>
    void EncodeQuery(const Args&... args) {
      EncodeLiveQuery(args...);
    }
    uint64_t NewRequestId(const Session& requester) {
      return MakeMessageId(requester.peer, d->next_seq_++);
    }
    void Remember(const Envelope& env, int64_t session) {
      d->Remember(env.id, session, PolicyTagOf<Policy>::value);
    }
    bool Alive(PeerId) const { return true; }
    void RejectFrame(bool) { d->stats_.frames_rejected += 1; }
    void OnSessionOpened(const Session&) { d->stats_.queries_served += 1; }
    void OnQuerySent(const PendingRequest& rq) {
      if (rq.attempt == 1) d->stats_.child_requests += 1;
      if (d->profiler_ == nullptr) return;
      d->profiler_->OnMessage(rq.from, rq.target, 0, rq.frame.size());
      if (rq.attempt > 1) d->profiler_->OnRetransmission(rq.from);
    }
    void OnReplySent(const Session& s, bool retransmit) {
      if (retransmit) {
        d->stats_.retransmissions += 1;
        if (d->profiler_ != nullptr) d->profiler_->OnRetransmission(s.peer);
      } else {
        d->stats_.replies_sent += 1;
      }
      if (d->profiler_ == nullptr) return;
      // Clients are not overlay peers: their synthetic ids must never
      // index the profiler's dense per-peer vector.
      if (IsClientId(s.requester)) {
        d->profiler_->OnMessageOut(s.peer, 0, s.reply.size());
      } else {
        d->profiler_->OnMessage(s.peer, s.requester, 0, s.reply.size());
      }
    }
    void OnAckSent(const Session&, size_t) { d->stats_.acks_sent += 1; }
    void OnTimeout(const PendingRequest&, bool retrying) {
      if (retrying) d->stats_.retransmissions += 1;
    }
    void OnGiveUp(uint64_t, const PendingRequest& rq) {
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

  /// The shard whose forward `id` is. Frames no shard expects go to the
  /// top-k shard, whose core counts a response as late and still checks
  /// and journals an ack.
  PolicyTag OwnerOf(uint64_t id) const {
    if (skyline_.core.Expects(id)) return PolicyTag::kSkyline;
    if (skyband_.core.Expects(id)) return PolicyTag::kSkyband;
    if (range_.core.Expects(id)) return PolicyTag::kRange;
    return PolicyTag::kTopK;
  }

  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  /// Enters a session's query id into the dedup window; the session whose
  /// id this pushes out can never be replayed again, so its core frees it.
  void Remember(uint64_t id, int64_t session, PolicyTag tag) {
    int64_t evicted = 0;
    if (!dedup_.Insert(id, (session << 8) | static_cast<int64_t>(tag),
                       &evicted)) {
      return;
    }
    WithShard(static_cast<PolicyTag>(evicted & 0xff),
              [evicted](auto& shard) { shard.core.Forget(evicted >> 8); });
  }

  // --- admin plane --------------------------------------------------------

  /// Answers one monitoring probe. Requests are empty-payload frames; any
  /// payload bytes mean a corrupt or foreign frame, counted and dropped
  /// exactly like an undecodable query. The reply reuses the request's
  /// kind and id (the monitor correlates by id, like the query protocol)
  /// and flows through the normal Send path. No dedup: admin reads are
  /// idempotent, so answering a duplicated probe twice is harmless.
  /// Admin traffic stays out of the journals — they record the query
  /// protocol, and trace assembly must not see recv events whose send
  /// side lives in another process's (unjournaled) monitor.
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
    const Envelope reply{env.id, env.to, env.from, env.kind, 0, env.trace};
    wire::Buffer buf;
    const size_t start = BeginEnvelopeFrame(reply, &buf);
    switch (env.kind) {
      case MessageKind::kAdminPing: {
        AdminPong pong;
        pong.uptime_ms = static_cast<uint64_t>(NowMs());
        pong.peers_served = local_peers_.size();
        EncodeAdminPong(pong, &buf);
        break;
      }
      case MessageKind::kAdminStats:
        EncodeStatsReport(StatsReport(), &buf);
        break;
      case MessageKind::kAdminSnapshot: {
        obs::Snapshot snap;
        snap.at_ms = NowMs();
        if (registry_ != nullptr) {
          SyncRegistry();
          snap.counters = registry_->CounterValues();
          snap.gauges = registry_->GaugeValues();
        }
        EncodeSnapshot(snap, &buf);
        break;
      }
      case MessageKind::kAdminHealth: {
        const QueueDepths q = Depths();
        AdminHealthReport h;
        h.healthy = true;  // it answered; the monitor marks silence
        h.uptime_ms = static_cast<uint64_t>(NowMs());
        h.open_sessions = q.open_sessions;
        h.pending_requests = q.pending_requests;
        h.queries_served = stats_.queries_served;
        EncodeHealthReport(h, &buf);
        break;
      }
      default:
        return;  // unreachable: Dispatch only routes admin kinds here
    }
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
  obs::JournalSet* journal_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  obs::Registry* registry_ = nullptr;
  std::function<TransportCounters()> transport_counters_;
  TimerQueue timers_;
  DaemonStats stats_;
  uint32_t next_seq_ = 1;
  Shard<TopKPolicy> topk_;
  Shard<SkylinePolicy> skyline_;
  Shard<SkybandPolicy> skyband_;
  Shard<RangePolicy> range_;
};

}  // namespace ripple::net

#endif  // RIPPLE_NET_DAEMON_H_
