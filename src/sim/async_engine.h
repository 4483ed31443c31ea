#ifndef RIPPLE_SIM_ASYNC_ENGINE_H_
#define RIPPLE_SIM_ASYNC_ENGINE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/kernel_counters.h"
#include "net/coverage.h"
#include "net/envelope.h"
#include "net/fault.h"
#include "net/metrics.h"
#include "net/traffic.h"
#include "net/transport.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "overlay/types.h"
#include "ripple/api.h"
#include "ripple/peer_core.h"
#include "ripple/policy.h"
#include "ripple/wire_codec.h"
#include "sim/event_sim.h"
#include "sim/fault_model.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace ripple {

/// Per-message network delay: (from, to) -> time units. The default charges
/// one unit per hop, mirroring the hop-count analysis.
using LatencyModel = std::function<double(PeerId from, PeerId to)>;

inline LatencyModel UnitLatency() {
  return [](PeerId, PeerId) { return 1.0; };
}

/// Message-level asynchronous execution of the RIPPLE algorithms.
///
/// The recursive Engine evaluates Algorithms 1-3 as function calls with
/// analytic latency accounting; this class executes the *same* policies as
/// explicit messages through a discrete-event scheduler, the way deployed
/// peers would: query forwards, per-subtree state responses (fast-phase
/// subtrees convergecast their state bundles), and answer deliveries to
/// the initiator, each taking LatencyModel time on the wire. The per-peer
/// procedure is PeerCore (ripple/peer_core.h), the same state machine the
/// live daemon drives on wall time; this engine is its virtual-time
/// driver, with local answers sent straight to the initiator.
///
/// Every transmission crosses a real serialization boundary: the message
/// is encoded into a framed wire datagram (ripple/wire_codec.h,
/// docs/WIRE.md) and handed to net::Transport::Send, which is
/// fire-and-forget; whatever the transport delivers back through the
/// engine's installed receiver is what gets decoded — objects never
/// cross, so policy code at a peer runs on exactly what came off the
/// wire. The default LoopbackTransport asserts each datagram is
/// well-framed and delivers it unchanged, synchronously, which keeps the
/// simulated clock exact (the receiver only schedules events, the wire
/// itself takes zero simulated time). A custom transport (SetTransport)
/// may count, corrupt or swallow datagrams — swallowing is simply never
/// delivering — and the engine arms its fault machinery so decode
/// rejections and silent losses degrade into timer-driven
/// retransmissions and coverage loss rather than hangs.
/// QueryStats::bytes_on_wire records the encoded bytes, charged at the
/// sender exactly where messages are charged.
///
/// Fault tolerance: when the request's FaultOptions describe an imperfect
/// network (AnyFault()), every transmission runs through a deterministic
/// FaultModel (loss, duplication, delay jitter, peer crashes) and the
/// protocol arms itself:
///  * every logical message carries an id; retransmissions reship the
///    byte-identical frame snapshot and receivers suppress duplicates
///    through per-peer dedup windows;
///  * requesters arm per-message timers with capped exponential backoff;
///    a finished callee answers retransmitted queries from its encoded
///    reply cache, a still-running callee sends a progress ack that
///    restores the requester's patience;
///  * after `max_retries` consecutive silent timeouts the requester gives
///    up on the link, folds in what it has, and the result is returned
///    flagged `complete = false` with a Coverage report.
/// With the default (perfect-network) options none of this machinery
/// exists at runtime and the engine keeps its cross-validation contract:
///
/// For any query, overlay and ripple parameter, the fault-free async
/// execution produces exactly the same answer, the same set of visited
/// peers, the same message count and the same bytes-on-wire as the
/// recursive engine; its completion time upper-bounds the engine's
/// forward-hop latency (responses ride the clock here, not in the
/// lemma-style accounting).
template <typename Overlay, typename Policy>
  requires QueryPolicy<Policy, typename Overlay::Area>
class AsyncEngine {
 public:
  using Area = typename Overlay::Area;
  using Query = typename Policy::Query;
  using LocalState = typename Policy::LocalState;
  using GlobalState = typename Policy::GlobalState;
  using Answer = typename Policy::Answer;
  using Request = QueryRequest<Policy>;
  using Result = QueryResult<Answer>;

  AsyncEngine(const Overlay* overlay, Policy policy,
              LatencyModel latency = UnitLatency())
      : overlay_(overlay),
        policy_(std::move(policy)),
        latency_(std::move(latency)) {}

  /// Attaches a tracer recording one span per session, stamped with
  /// simulator time (so wire delays from the LatencyModel are visible in
  /// the trace). Same contract as Engine::SetTracer: nullptr disables,
  /// not owned, QueryStats are identical either way. Under faults, spans
  /// additionally carry per-session retry/timeout counts.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Attaches a per-peer event journal (obs/journal.h): frame sends,
  /// receives, retransmissions, network drops and crash-drops are appended
  /// to the acting peer's log — but only for head-sampled queries
  /// (request.trace_id != 0), so an unsampled workload writes nothing.
  /// When a tracer is also attached, Run() points it at the same journal,
  /// mirroring span begin/end events so the offline assembler
  /// (obs/assemble.h) can rebuild the full span tree from the journals
  /// alone. nullptr detaches; not owned.
  void SetJournal(obs::JournalSet* journal) { journal_ = journal; }
  obs::JournalSet* journal() const { return journal_; }

  /// Observer invoked for every peer that opens a session (one activation
  /// per visited peer — same contract as Engine::SetVisitObserver, so
  /// callers studying per-peer load can treat both engines uniformly).
  /// Pass nullptr to clear.
  void SetVisitObserver(std::function<void(PeerId)> observer) {
    visit_observer_ = std::move(observer);
  }

  /// Secondary slow-phase contact order on priority ties — same contract
  /// as Engine::SetLinkBias: larger bias first, never changes which links
  /// are contacted or the answer, only tie order. nullptr clears.
  void SetLinkBias(std::function<double(PeerId)> bias) {
    link_bias_ = std::move(bias);
  }

  /// Attaches a per-peer load profiler (same contract as
  /// Engine::SetProfiler: message/byte charges mirror QueryStats at the
  /// sender, so totals cross-check; here the profiler additionally sees
  /// retransmissions, acks and per-peer fan-out high-water marks from
  /// the fault machinery). nullptr disables; not owned.
  void SetProfiler(obs::Profiler* profiler) { profiler_ = profiler; }
  obs::Profiler* profiler() const { return profiler_; }

  /// Replaces the default loopback transport (nullptr restores it; not
  /// owned). A custom transport is treated as an imperfect network: the
  /// fault machinery arms even under clean FaultOptions, so a transport
  /// that corrupts or swallows datagrams degrades the result's coverage
  /// instead of hanging the simulation.
  void SetTransport(net::Transport* transport) { transport_ = transport; }
  net::Transport* transport() const {
    return transport_ != nullptr ? transport_ : &default_transport_;
  }
  /// The built-in loopback (its shipped-frame counters are handy in
  /// tests even when a custom transport is not installed).
  const net::LoopbackTransport& loopback() const { return default_transport_; }

  const Policy& policy() const { return policy_; }

  Result Run(const Request& request) const {
    // Fresh per-query scratch (kernel arena + work counters), mirroring
    // the recursive engine so both report identical kernel.* work.
    PerQueryArena().Reset();
    ResetKernelCounters();
    if (tracer_ != nullptr) {
      // Head sampling: the tracer follows the request's decision so
      // journal mirroring records exactly the sampled queries.
      tracer_->set_trace_id(request.trace_id);
      if (journal_ != nullptr) tracer_->SetJournal(journal_);
    }
    Runtime rt(this, &request);
    rt.Start();
    rt.sim.Run();
    Result result = rt.Finalize();
    obs::FlushKernelCounters();
    return result;
  }

 private:
  /// One query's virtual-time driver of the shared per-peer core
  /// (ripple/peer_core.h). The event queue is its clock and timer source
  /// and the FaultModel its network; it owns what only the simulator has:
  /// QueryStats/Coverage accounting, per-peer dedup windows and the
  /// reliable direct-to-initiator answer channel.
  struct Runtime {
    using Core = PeerCore<Overlay, Policy, Runtime>;
    using Session = typename Core::Session;
    /// Local answers travel straight to the initiator.
    static constexpr bool kConvergecast = false;

    /// One answer delivery to the initiator, with sender-side
    /// retransmission on loss or corruption (the channel models a reliable
    /// transport whose acks/nacks are elided from the accounting;
    /// retransmissions are not). The sender cannot observe a swallowed or
    /// rejected datagram through the fire-and-forget transport, so every
    /// transmission arms a watchdog timer; delivery cancels it, anything
    /// else retransmits when it fires.
    struct PendingAnswer {
      PeerId from = kInvalidPeer;
      wire::TraceContext trace;
      std::vector<uint8_t> frame;  // encoded answer frame (byte snapshot)
      size_t tuples = 0;
      int attempt = 0;
      bool settled = false;  // delivered once, or lost for good
      uint64_t timer = 0;    // live watchdog handle
    };

    /// Per message id: whether a slow session sent the forward (only
    /// those are charged for the states coming back, see OnReplySent) and
    /// whether its requester gave up on it.
    struct RequestNote {
      bool slow_requester = false;
      bool gave_up = false;
    };

    Runtime(const AsyncEngine* engine, const Request* req)
        : self(engine),
          request(req),
          ft(req->fault.AnyFault() || engine->transport_ != nullptr),
          fault(req->fault, req->initiator),
          core(engine->overlay_, &engine->policy_, this) {}

    const AsyncEngine* self;
    const Request* request;
    const bool ft;  // fault machinery armed
    FaultModel fault;
    EventSimulator sim;
    Core core;
    net::WireTraffic traffic;
    std::vector<RequestNote> notes;  // indexed by message id
    std::vector<PendingAnswer> answers;
    std::unordered_map<PeerId, net::DedupWindow> query_dedup;
    Result result;
    int answers_outstanding = 0;
    bool root_done = false;
    bool deadline_hit = false;
    double root_finish_time = 0;
    double last_answer_time = 0;

    const Policy& policy() const { return self->policy_; }

    // --- entry / exit ----------------------------------------------------

    void Start() {
      // Every datagram the transport delivers during this run lands in
      // OnWireDeliver, which applies the simulated network (latency,
      // faults) and schedules the decode. The loopback transport calls
      // straight back from inside Send(); a corrupting/swallowing test
      // transport calls with modified bytes or not at all.
      self->transport()->SetReceiver(
          [this](const net::Envelope& env, std::vector<uint8_t> bytes) {
            OnWireDeliver(env, std::move(bytes));
          });
      if (ft && std::isfinite(request->deadline)) {
        sim.Schedule(request->deadline, [this] { OnDeadline(); });
      }
      core.OpenRoot(request->initiator, request->query,
                    request->initial_state.has_value()
                        ? *request->initial_state
                        : policy().InitialGlobalState(request->query),
                    request->ripple.hops(), request->trace_id);
    }

    Result Finalize() {
      self->transport()->SetReceiver(nullptr);
      if (!ft && !std::isfinite(request->deadline)) {
        RIPPLE_CHECK(core.open_sessions() == 0 &&
                     "async run left dangling sessions");
      }
      policy().FinalizeAnswer(&result.answer, request->query);
      result.completion_time = std::max(root_finish_time, last_answer_time);
      if (deadline_hit) {
        result.completion_time = std::max(result.completion_time, sim.now());
      }
      result.complete = result.coverage.complete() && !deadline_hit;
      net::RecordCoverageMetrics(result.coverage);
      net::RecordTrafficMetrics(traffic);
      return std::move(result);
    }

    // --- PeerCore driver hooks -------------------------------------------

    double Now() const { return sim.now(); }
    uint64_t ArmTimer(double delay, std::function<void()> fn) {
      return sim.Arm(delay, std::move(fn));
    }
    void CancelTimer(uint64_t id) { sim.Cancel(id); }
    /// A perfect network needs no timers (the exact fault-free protocol).
    bool retransmits() const { return ft; }
    const net::RetryOptions& retry() const { return request->retry; }
    obs::Tracer* tracer() const { return self->tracer_; }
    obs::Profiler* profiler() const { return self->profiler_; }
    /// Head sampling gates every journal event.
    obs::JournalSet* journal() const {
      return request->trace_id != 0 ? self->journal_ : nullptr;
    }
    const std::function<double(PeerId)>* link_bias() const {
      return self->link_bias_ ? &self->link_bias_ : nullptr;
    }
    void Send(const net::Envelope& env, std::vector<uint8_t> bytes) {
      self->transport()->Send(env, std::move(bytes));
    }
    void EncodeQuery(const typename Core::Codec& codec,
                     const net::Envelope& env, const Query& q,
                     const GlobalState& g, const Area& area, int r,
                     wire::Buffer* buf) {
      codec.EncodeQueryMessage(env, q, g, area, r, buf);
    }
    uint64_t NewRequestId(const Session& requester) {
      notes.push_back(RequestNote{!requester.fast, false});
      return notes.size() - 1;
    }
    void Remember(const net::Envelope& env, int64_t session) {
      if (ft) DedupOf(env.to).Insert(env.id, session);
    }
    bool Alive(PeerId peer) const { return !fault.CrashedAt(peer, sim.now()); }

    /// A received datagram failed to decode. Corruption can only come
    /// from a custom transport, and installing one arms `ft` — on a
    /// loopback wire a rejection means an engine bug, so fail loudly.
    /// Truncations are counted apart from semantic rejections.
    void RejectFrame(bool truncated) {
      if (truncated) {
        traffic.frames_truncated += 1;
      } else {
        traffic.frames_rejected += 1;
      }
      RIPPLE_CHECK(ft && "frame rejected without fault machinery armed");
    }

    void OnSessionOpened(const Session& s) {
      result.stats.peers_visited += 1;
      if (self->visit_observer_) self->visit_observer_(s.peer);
    }
    void OnQuerySent(const PendingRequest& rq) {
      Charge(rq.from, rq.target, rq.tuples, rq.frame.size(),
             &traffic.bytes_query, rq.attempt > 1);
    }
    /// State messages are accounted exactly once — at the slow session
    /// that consumes them; the convergecast through fast sessions only
    /// exists for completion detection, so its bytes cross the transport
    /// uncharged. Retransmissions are charged again.
    void OnReplySent(const Session& s, bool retransmit) {
      if (notes[s.origin_req].slow_requester) {
        for (const auto& part : s.reply_parts) {
          Charge(s.peer, s.requester, part.tuples, part.bytes,
                 &traffic.bytes_response);
        }
      }
      if (retransmit) {
        result.coverage.retries += 1;
        if (profiler() != nullptr) profiler()->OnRetransmission(s.peer);
      }
    }
    void OnAckSent(const Session& s, size_t bytes) {
      result.coverage.acks += 1;
      Charge(s.peer, s.requester, 0, bytes, &traffic.bytes_ack);
    }
    void OnTimeout(const PendingRequest&, bool retrying) {
      result.coverage.timeouts += 1;
      if (retrying) result.coverage.retries += 1;
    }
    void OnGiveUp(uint64_t id, const PendingRequest& rq) {
      notes[id].gave_up = true;
      result.coverage.links_unresolved += 1;
      NoteUnreachable(rq.target);
      if (fault.CrashedAt(rq.target, sim.now())) NoteCrashed(rq.target);
    }
    void OnStaleResponse(uint64_t id) {
      if (id < notes.size() && notes[id].gave_up) {
        result.coverage.late_responses += 1;
      } else {
        result.coverage.duplicates_suppressed += 1;
      }
    }
    void OnRootFinished() {
      root_done = true;
      root_finish_time = sim.now();
      MaybeStop();
    }

    /// Charges one frame at its sender, exactly where the recursive
    /// engine charges the message.
    void Charge(PeerId from, PeerId to, uint64_t tuples, size_t bytes,
                uint64_t* kind_bytes, bool retransmit = false) {
      result.stats.messages += 1;
      result.stats.tuples_shipped += tuples;
      result.stats.bytes_on_wire += bytes;
      *kind_bytes += bytes;
      traffic.frames += 1;
      if (profiler() == nullptr) return;
      profiler()->OnMessage(from, to, tuples, bytes);
      if (retransmit) profiler()->OnRetransmission(from);
    }

    // --- the simulated network --------------------------------------------

    /// The transport delivered one datagram (possibly modified in
    /// flight). This is where bytes re-enter the simulation: the
    /// simulated network (latency model + fault draws) sits between here
    /// and the decode, exactly where the wire would be.
    void OnWireDeliver(const net::Envelope& env, std::vector<uint8_t> bytes) {
      // Admin-plane kinds only exist on the live overlay.
      RIPPLE_CHECK(!net::IsAdminKind(env.kind));
      const double base = self->latency_(env.from, env.to);
      double delay = base;
      if (ft) {
        if (fault.DropMessage()) {
          result.coverage.messages_lost += 1;
          core.Journal(obs::JournalEventKind::kDrop, env.from, env, 0);
          return;  // the sender's timer retransmits
        }
        delay = fault.Jitter(base);
        if (fault.DuplicateMessage()) {
          result.coverage.messages_duplicated += 1;
          ScheduleDelivery(env, fault.Jitter(base), bytes);
        }
      }
      ScheduleDelivery(env, delay, std::move(bytes));
    }

    /// Delivers the datagram at `env.to` after `delay`, dropping it if the
    /// receiver has crashed by then. Every receive path dedups, so
    /// duplicate copies are harmless.
    void ScheduleDelivery(const net::Envelope& env, double delay,
                          std::vector<uint8_t> bytes) {
      sim.Schedule(delay, [this, env, bytes = std::move(bytes)] {
        if (ft && fault.CrashedAt(env.to, sim.now())) {
          result.coverage.crash_drops += 1;
          NoteCrashed(env.to);
          core.Journal(obs::JournalEventKind::kCrash, env.to, env, 0);
          return;
        }
        switch (env.kind) {
          case net::MessageKind::kQuery: DeliverQuery(env, bytes); break;
          case net::MessageKind::kResponse: core.OnResponse(env, bytes); break;
          case net::MessageKind::kAck: core.OnAck(env.id, bytes); break;
          default: ReceiveAnswer(static_cast<size_t>(env.id), bytes); break;
        }
      });
    }

    void DeliverQuery(const net::Envelope& env,
                      const std::vector<uint8_t>& datagram) {
      if (ft) {
        if (const int64_t* session = DedupOf(env.to).Lookup(env.id)) {
          // Retransmission or network duplicate of a query we have seen.
          result.coverage.duplicates_suppressed += 1;
          core.Replay(*session);
          return;
        }
      }
      // The sender's envelope names the message, like a UDP packet's
      // source address; a header that disagrees was corrupted in flight.
      wire::Reader r(datagram);
      net::Envelope header;
      const wire::FrameError ferr = net::DecodeEnvelopeFrameEx(&r, &header);
      if (ferr != wire::FrameError::kOk ||
          header.kind != net::MessageKind::kQuery || header.id != env.id ||
          header.from != env.from || header.to != env.to) {
        RejectFrame(ferr == wire::FrameError::kTruncated);
        return;
      }
      core.OnQuery(header, &r, datagram.size());
    }

    void NoteCrashed(PeerId peer) {
      NoteSorted(&result.coverage.crashed_peers, peer);
    }
    void NoteUnreachable(PeerId peer) {
      NoteSorted(&result.coverage.unreachable_peers, peer);
    }
    static void NoteSorted(std::vector<PeerId>* v, PeerId peer) {
      auto it = std::lower_bound(v->begin(), v->end(), peer);
      if (it == v->end() || *it != peer) v->insert(it, peer);
    }

    net::DedupWindow& DedupOf(PeerId peer) {
      return query_dedup.try_emplace(peer, retry().dedup_window)
          .first->second;
    }

    // --- answers ----------------------------------------------------------

    /// The core's hook for a session's nonempty local answer: it rides a
    /// bounded-retry reliable channel to the initiator; once the budget is
    /// spent the loss is recorded in coverage and the result is partial.
    void SendAnswer(const Session& s, Answer&& payload, size_t tuples) {
      const size_t idx = answers.size();
      answers.push_back(PendingAnswer{});
      PendingAnswer& a = answers[idx];
      a.from = s.peer;
      a.tuples = tuples;
      a.trace = Core::TraceFor(s.trace_id, s.span);
      const net::Envelope env{static_cast<uint64_t>(idx), s.peer,
                              request->initiator, net::MessageKind::kAnswer,
                              0, a.trace};
      wire::Buffer buf;
      core.codec().EncodeAnswerMessage(env, payload, &buf);
      a.frame = buf.Take();
      ++answers_outstanding;
      TransmitAnswer(idx);
    }

    void TransmitAnswer(size_t idx) {
      PendingAnswer& a = answers[idx];
      a.attempt += 1;
      Charge(a.from, request->initiator, a.tuples, a.frame.size(),
             &traffic.bytes_answer, a.attempt > 1);
      const net::Envelope env{static_cast<uint64_t>(idx), a.from,
                              request->initiator, net::MessageKind::kAnswer,
                              a.attempt, a.trace};
      core.Journal(a.attempt > 1 ? obs::JournalEventKind::kRetransmit
                                 : obs::JournalEventKind::kFrameSend,
                   a.from, env, a.frame.size());
      Send(env, std::vector<uint8_t>(a.frame));
      if (ft) {
        answers[idx].timer =
            sim.Arm(retry().timeout, [this, idx] { OnAnswerTimeout(idx); });
      }
    }

    /// The watchdog fired with no delivery: the transmission failed (loss
    /// in transit, swallowed by the transport, or the initiator rejected
    /// corrupted bytes). Retransmit, or spend the budget and record the
    /// loss.
    void OnAnswerTimeout(size_t idx) {
      PendingAnswer& a = answers[idx];
      if (a.settled) return;
      if (a.attempt > retry().max_retries) {
        result.coverage.answers_lost += 1;
        SettleAnswer(idx);
        return;
      }
      result.coverage.retries += 1;
      if (fault.CrashedAt(a.from, sim.now())) {
        // The sender died holding the only copy.
        result.coverage.answers_lost += 1;
        SettleAnswer(idx);
        return;
      }
      TransmitAnswer(idx);
    }

    void ReceiveAnswer(size_t idx, const std::vector<uint8_t>& datagram) {
      PendingAnswer& a = answers[idx];
      if (a.settled) {
        result.coverage.duplicates_suppressed += 1;
        return;
      }
      wire::Reader r(datagram);
      net::Envelope env;
      Answer payload{};
      const wire::FrameError ferr = net::DecodeEnvelopeFrameEx(&r, &env);
      const bool ok = ferr == wire::FrameError::kOk &&
                      env.kind == net::MessageKind::kAnswer &&
                      core.codec().DecodeAnswerPayload(&r, &payload) &&
                      r.ok() && r.remaining() == 0;
      if (!ok) {
        // The initiator saw garbage; the elided nack of the reliable
        // answer channel becomes a sender-side watchdog retransmission.
        RejectFrame(ferr == wire::FrameError::kTruncated);
        return;
      }
      core.Journal(obs::JournalEventKind::kFrameRecv, request->initiator,
                   env, datagram.size());
      policy().MergeAnswer(&result.answer, std::move(payload),
                           request->query);
      last_answer_time = std::max(last_answer_time, sim.now());
      if (ft) sim.Cancel(a.timer);
      SettleAnswer(idx);
    }

    void SettleAnswer(size_t idx) {
      answers[idx].settled = true;
      --answers_outstanding;
      MaybeStop();
    }

    // --- termination ------------------------------------------------------

    /// Once the initiator's session closed and every answer settled, the
    /// query is over; surviving events are lapsed retry timers and
    /// convergecast bookkeeping of abandoned subtrees.
    void MaybeStop() {
      if (root_done && answers_outstanding == 0) sim.Stop();
    }

    /// The request deadline fired before the root closed: every pending
    /// forward is declared unresolved and the initiator returns what it
    /// folded so far.
    void OnDeadline() {
      if (root_done && answers_outstanding == 0) return;
      deadline_hit = true;
      for (const auto& [id, rq] : core.pending()) {
        result.coverage.links_unresolved += 1;
        NoteUnreachable(rq.target);
      }
      sim.Stop();
    }
  };

  const Overlay* overlay_;
  Policy policy_;
  LatencyModel latency_;
  std::function<void(PeerId)> visit_observer_;
  std::function<double(PeerId)> link_bias_;
  obs::Tracer* tracer_ = nullptr;
  obs::JournalSet* journal_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  net::Transport* transport_ = nullptr;
  mutable net::LoopbackTransport default_transport_;
};

}  // namespace ripple

#endif  // RIPPLE_SIM_ASYNC_ENGINE_H_
