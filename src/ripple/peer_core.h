#ifndef RIPPLE_RIPPLE_PEER_CORE_H_
#define RIPPLE_RIPPLE_PEER_CORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/envelope.h"
#include "net/fault.h"
#include "net/peers.h"
#include "obs/journal.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "overlay/types.h"
#include "ripple/policy.h"
#include "ripple/wire_codec.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace ripple {

/// One query forward awaiting its response. Retransmissions reuse the
/// entry (and its message id) and reship `frame` — the encoded bytes of
/// the first attempt — so every copy is byte-identical and receivers can
/// dedup by id. The entry is erased once the response is consumed or the
/// requester gives up on the link.
struct PendingRequest {
  int64_t requester = -1;      // session waiting for the response
  PeerId from = kInvalidPeer;
  PeerId target = kInvalidPeer;
  wire::TraceContext trace;    // stamped into every copy's header
  std::vector<uint8_t> frame;  // encoded query frame (byte snapshot)
  uint64_t tuples = 0;         // global-state tuples the frame carries
  int attempt = 0;             // transmissions so far
  int strikes = 0;             // consecutive timeouts without response/ack
  double timeout = 0;          // current (backed-off) patience
  uint64_t timer = 0;          // live TimerQueue handle
};

/// The per-peer RIPPLE procedure (Algorithms 1-3) for one policy, as a
/// state machine that does no I/O. It takes decoded query, response and
/// ack frames plus timer fires; it emits frames, arms timers and hands
/// each session's local answer to its driver. Every peer a driver serves
/// runs through one core: a session is one activation of the procedure
/// at one peer — fast fan-out with the state snapshot, or the prioritized
/// slow walk that folds in each child's state before contacting the next
/// link — ending in the local answer and the reply to the requester.
///
/// Reliability is requester-driven: a forward is retransmitted with
/// capped backoff until its response arrives or `max_retries` timeouts
/// pass in a row, after which the session continues without the subtree.
/// A finished session's encoded reply is its reply cache, replayed
/// byte-identically to a duplicate query; a running one acks instead,
/// which restores the requester's patience.
///
/// `Driver` supplies the clock, timers, transport, observability sinks,
/// counters and dedup window through plain member calls (see AsyncEngine
/// and PeerDaemon for the two drivers). It also fixes in code where
/// answers go: `Driver::kConvergecast == false` hands each local answer
/// to the driver (the simulator's direct channel to the initiator); true
/// folds answers up the query tree inside the reply datagrams, so the
/// root session replies to its client with the finalized answer (the
/// live daemon).
template <typename Overlay, typename Policy, typename Driver>
class PeerCore {
 public:
  using Area = typename Overlay::Area;
  using Query = typename Policy::Query;
  using LocalState = typename Policy::LocalState;
  using GlobalState = typename Policy::GlobalState;
  using Answer = typename Policy::Answer;
  using Codec = WireCodec<Overlay, Policy>;

  /// One activation of the procedure at one peer. The session owns its
  /// *decoded* query: policy calls run on what came off the wire.
  struct Session {
    int64_t id = -1;
    PeerId peer = kInvalidPeer;
    PeerId requester = kInvalidPeer;  // parent peer, client, or none
    uint64_t origin_req = 0;          // id of the forward that opened it
    bool root = false;                // opened by the initiator or a client
    uint64_t trace_id = 0;
    uint32_t span = obs::kNoSpan;     // kNoSpan when tracing is off
    Query query{};            // Q as decoded at this peer
    GlobalState incoming{};   // S^G as received
    GlobalState global{};     // S^G_w, updated between iterations
    LocalState local{};       // S^L_w
    int r = 0;
    bool fast = false;
    bool finished = false;
    bool forgotten = false;  // dropped by the dedup window: free at finish
    // Slow phase: prioritized candidates still to consider.
    struct Candidate {
      PeerId target;
      Area area;
      double priority;
    };
    std::vector<Candidate> candidates;
    size_t next_candidate = 0;
    // Fast phase: responses still expected, and the children's states,
    // collected unmerged for the slow ancestor (Alg. 3's convergecast).
    int outstanding_children = 0;
    std::vector<LocalState> bundle;
    Answer answer{};  // convergecast: own answer merged with the children's
    // Reply cache: the encoded reply datagram, plus the size and tuple
    // count of each state frame in it (what a driver charges per send).
    struct ReplyPart {
      size_t bytes = 0;
      uint64_t tuples = 0;
    };
    std::vector<uint8_t> reply;
    std::vector<ReplyPart> reply_parts;
  };

  PeerCore(const Overlay* overlay, const Policy* policy, Driver* driver)
      : overlay_(overlay), policy_(policy), codec_(overlay, policy),
        driver_(driver) {}

  const Codec& codec() const { return codec_; }

  /// The trace context a frame sent on behalf of `span` carries: the
  /// query's trace id, the sender's span as the receiver's parent, and
  /// the initiator's head-sampling decision.
  static wire::TraceContext TraceFor(uint64_t trace_id, uint32_t span) {
    wire::TraceContext t;
    t.trace_id = trace_id;
    t.parent_span = span;
    if (trace_id != 0) t.flags = wire::kFrameFlagSampled;
    return t;
  }

  /// Opens the initiator's session; its query never crossed a wire.
  void OpenRoot(PeerId peer, Query query, GlobalState state, int r,
                uint64_t trace_id) {
    Session& s = NewSession(peer, kInvalidPeer, 0, /*root=*/true, trace_id,
                            std::move(query), std::move(state), r);
    Start(s, overlay_->FullArea(), obs::kNoSpan);
  }

  /// A query frame whose header decoded to `env`, with `r` positioned at
  /// the codec payload. `wire_bytes` is the datagram's size.
  void OnQuery(const net::Envelope& env, wire::Reader* r, size_t wire_bytes) {
    Query q{};
    GlobalState g{};
    Area area{};
    int64_t hops = 0;
    if (!codec_.DecodeQueryPayload(r, &q, &g, &area, &hops) || !r->ok() ||
        r->remaining() != 0) {
      // Dropped without entering the dedup window: the requester's
      // retransmission (possibly clean this time) must not be suppressed.
      driver_->RejectFrame(/*truncated=*/false);
      return;
    }
    Journal(obs::JournalEventKind::kFrameRecv, env.to, env, wire_bytes);
    Session& s = NewSession(env.to, env.from, env.id, net::IsClientId(env.from),
                            env.trace.trace_id, std::move(q), std::move(g),
                            static_cast<int>(hops));
    driver_->Remember(env, s.id);
    // The receiver's span parents off whatever the frame header carried.
    Start(s, std::move(area), env.trace.parent_span);
  }

  /// A duplicate of the query that opened session `sid`: replay the
  /// cached reply of a finished session, or ack that it is still running.
  void Replay(int64_t sid) {
    Session& s = sessions_.at(sid);
    if (s.finished) {
      SendReply(s, /*retransmit=*/true);
      return;
    }
    const net::Envelope env{s.origin_req, s.peer, s.requester,
                            net::MessageKind::kAck, 0,
                            TraceFor(s.trace_id, s.span)};
    wire::Buffer buf;
    const size_t bytes = codec_.EncodeAckMessage(env, &buf);
    driver_->OnAckSent(s, bytes);
    Journal(obs::JournalEventKind::kFrameSend, s.peer, env, bytes);
    driver_->Send(env, buf.Take());
  }

  /// A reply datagram for forward `env.id`: back-to-back state frames,
  /// then (convergecast only) at most one partial-answer frame. Decoding
  /// is all-or-nothing; a rejected datagram leaves recovery to the
  /// retransmission timer.
  void OnResponse(const net::Envelope& env,
                  const std::vector<uint8_t>& datagram) {
    auto it = pending_.find(env.id);
    if (it == pending_.end()) {
      // A duplicate of a consumed response, or one arriving after the
      // requester gave up on the link.
      driver_->OnStaleResponse(env.id);
      return;
    }
    std::vector<LocalState> bundle;
    Answer partial{};
    bool has_partial = false;
    net::Envelope first;  // the first frame's header, for the journal
    wire::Reader r(datagram);
    wire::FrameError ferr = wire::FrameError::kTruncated;  // if empty
    bool ok = !datagram.empty();
    while (ok && r.remaining() > 0) {
      wire::FrameHeader h;
      ferr = wire::DecodeFrameHeaderEx(&r, &h);
      if (ferr != wire::FrameError::kOk || h.id != env.id || has_partial) {
        ok = false;
        break;
      }
      const size_t frame_end = r.position() + wire::FramePayloadSize(h);
      if (h.tag == static_cast<uint8_t>(net::MessageKind::kResponse)) {
        if (bundle.empty()) {
          first = net::Envelope{h.id, h.from, h.to, net::MessageKind::kResponse,
                                0, h.trace};
        }
        LocalState st{};
        ok = codec_.DecodeResponsePayload(&r, &st);
        bundle.push_back(std::move(st));
      } else if (Driver::kConvergecast &&
                 h.tag == static_cast<uint8_t>(net::MessageKind::kAnswer)) {
        ok = codec_.DecodeAnswerPayload(&r, &partial);
        has_partial = true;
      } else {
        ok = false;
      }
      ok = ok && r.ok() && r.position() == frame_end;
    }
    if (!ok || bundle.empty()) {
      driver_->RejectFrame(ferr == wire::FrameError::kTruncated);
      return;
    }
    PendingRequest& rq = it->second;
    Journal(obs::JournalEventKind::kFrameRecv, rq.from, first,
            datagram.size());
    driver_->CancelTimer(rq.timer);
    Session& s = sessions_.at(rq.requester);
    pending_.erase(it);
    if (has_partial) {
      policy_->MergeAnswer(&s.answer, std::move(partial), s.query);
    }
    ChildResponded(s, std::move(bundle));
  }

  /// A progress ack for forward `id`: restores the requester's patience.
  /// An ack is pure optimization — a malformed one is counted and dropped
  /// (the next timeout re-asks the question anyway).
  void OnAck(uint64_t id, const std::vector<uint8_t>& datagram) {
    wire::Reader r(datagram);
    net::Envelope ack;
    const wire::FrameError ferr = net::DecodeEnvelopeFrameEx(&r, &ack);
    if (ferr != wire::FrameError::kOk || ack.kind != net::MessageKind::kAck ||
        r.remaining() != 0) {
      driver_->RejectFrame(ferr == wire::FrameError::kTruncated);
      return;
    }
    Journal(obs::JournalEventKind::kFrameRecv, ack.to, ack, datagram.size());
    auto it = pending_.find(id);
    if (it != pending_.end()) it->second.strikes = 0;
  }

  /// The dedup window no longer remembers session `sid`'s query, so the
  /// session can never be replayed: free it now, or when it finishes.
  void Forget(int64_t sid) {
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) return;
    if (it->second.finished) {
      sessions_.erase(it);
    } else {
      it->second.forgotten = true;
    }
  }

  /// Appends one frame-level event to `peer`'s journal (a no-op when the
  /// driver has no journal for this query).
  void Journal(obs::JournalEventKind kind, PeerId peer,
               const net::Envelope& env, uint64_t bytes) {
    obs::JournalSet* j = driver_->journal();
    if (j == nullptr) return;
    obs::JournalEvent e;
    e.kind = kind;
    e.peer = peer;
    e.sim_time = driver_->Now();
    e.trace_id = env.trace.trace_id;
    e.msg_id = env.id;
    e.msg_kind = static_cast<uint8_t>(env.kind);
    e.parent_span = env.trace.parent_span;
    e.bytes = bytes;
    e.attempt = env.attempt;
    j->Record(e);
  }

  bool Expects(uint64_t id) const { return pending_.count(id) != 0; }
  const std::unordered_map<uint64_t, PendingRequest>& pending() const {
    return pending_;
  }
  size_t sessions_held() const { return sessions_.size(); }
  size_t open_sessions() const {
    return static_cast<size_t>(
        std::count_if(sessions_.begin(), sessions_.end(),
                      [](const auto& kv) { return !kv.second.finished; }));
  }

 private:
  Session& NewSession(PeerId peer, PeerId requester, uint64_t origin_req,
                      bool root, uint64_t trace_id, Query query,
                      GlobalState state, int r) {
    const int64_t id = next_session_++;
    Session& s = sessions_[id];
    s.id = id;
    s.peer = peer;
    s.requester = requester;
    s.origin_req = origin_req;
    s.root = root;
    s.trace_id = trace_id;
    s.query = std::move(query);
    s.incoming = std::move(state);
    s.r = r;
    s.fast = r <= 0;
    return s;
  }

  obs::Span* SpanOf(const Session& s) {
    obs::Tracer* tracer = driver_->tracer();
    if (tracer == nullptr || s.span == obs::kNoSpan) return nullptr;
    return &tracer->span(s.span);
  }

  /// Lines 1-2 of the procedure, then the fast fan-out or the first step
  /// of the slow walk.
  void Start(Session& s, Area area, uint32_t wire_parent_span) {
    driver_->OnSessionOpened(s);
    obs::Profiler* profiler = driver_->profiler();
    if (profiler != nullptr) profiler->OnSpan(s.peer);
    if (obs::Tracer* tracer = driver_->tracer()) {
      s.span = tracer->StartSpan(
          s.peer, wire_parent_span,
          s.fast ? obs::SpanKind::kFast : obs::SpanKind::kSlow, s.r,
          driver_->Now());
      tracer->span(s.span).tuples_in =
          policy_->GlobalStateTupleCount(s.incoming);
    }
    const auto& node = overlay_->GetPeer(s.peer);
    {
      obs::ScopedTimer cpu(profiler, s.peer);
      s.local = policy_->ComputeLocalState(node.store, s.query, s.incoming);
      s.global = policy_->ComputeGlobalState(s.query, s.incoming, s.local);
    }

    if (s.fast) {
      // Algorithm 1 / Algorithm 3 second loop: forward everywhere at
      // once with the state snapshot.
      std::vector<std::pair<PeerId, Area>> targets;
      for (const auto& link : node.links) {
        Area restricted;
        if (!Overlay::IntersectArea(link.region, area, &restricted)) continue;
        if (!policy_->IsLinkRelevant(s.query, s.global, restricted)) {
          if (obs::Span* sp = SpanOf(s)) sp->links_pruned += 1;
          continue;
        }
        targets.emplace_back(link.target, std::move(restricted));
      }
      if (obs::Span* sp = SpanOf(s)) sp->links_forwarded = targets.size();
      if (profiler != nullptr && !targets.empty()) {
        profiler->OnQueueDepth(s.peer, targets.size());
      }
      s.outstanding_children = static_cast<int>(targets.size());
      for (auto& [target, restricted] : targets) {
        NewRequest(s, target, s.global, std::move(restricted), 0);
      }
      if (s.outstanding_children == 0) FinishSession(s);
      return;
    }
    // Algorithm 2 / Algorithm 3 first loop: prioritized, sequential.
    for (const auto& link : node.links) {
      Area restricted;
      if (!Overlay::IntersectArea(link.region, area, &restricted)) continue;
      const double priority = policy_->LinkPriority(s.query, restricted);
      s.candidates.push_back(typename Session::Candidate{
          link.target, std::move(restricted), priority});
    }
    // Priority ties fall back to the driver's link bias (larger first),
    // which never changes which links are contacted, only their order.
    const std::function<double(PeerId)>* bias = driver_->link_bias();
    std::stable_sort(s.candidates.begin(), s.candidates.end(),
                     [bias](const auto& a, const auto& b) {
                       if (a.priority != b.priority) {
                         return a.priority > b.priority;
                       }
                       if (bias != nullptr) {
                         return (*bias)(a.target) > (*bias)(b.target);
                       }
                       return false;
                     });
    AdvanceSlow(s);
  }

  /// Slow phase: contact the next relevant candidate or finish.
  void AdvanceSlow(Session& s) {
    while (s.next_candidate < s.candidates.size()) {
      auto& c = s.candidates[s.next_candidate++];
      if (!policy_->IsLinkRelevant(s.query, s.global, c.area)) {
        if (obs::Span* sp = SpanOf(s)) sp->links_pruned += 1;
        continue;
      }
      if (obs::Span* sp = SpanOf(s)) sp->links_forwarded += 1;
      if (obs::Profiler* p = driver_->profiler()) p->OnQueueDepth(s.peer, 1);
      NewRequest(s, c.target, s.global, std::move(c.area), s.r - 1);
      return;  // wait for the response (or the retry budget)
    }
    FinishSession(s);
  }

  /// A child (or fast subtree) responded with a bundle of local states.
  void ChildResponded(Session& s, std::vector<LocalState> bundle) {
    if (s.fast) {
      for (LocalState& st : bundle) s.bundle.push_back(std::move(st));
      if (--s.outstanding_children == 0) FinishSession(s);
      return;
    }
    if (obs::Span* sp = SpanOf(s)) sp->states_merged += bundle.size();
    {
      obs::ScopedTimer cpu(driver_->profiler(), s.peer);
      policy_->MergeLocalStates(s.query, &s.local, bundle);
      s.global = policy_->ComputeGlobalState(s.query, s.incoming, s.local);
    }
    AdvanceSlow(s);
  }

  /// A child could not be reached within the retry budget: fold in what
  /// we have and continue without its subtree.
  void ChildFailed(Session& s) {
    if (!s.fast) {
      AdvanceSlow(s);
    } else if (--s.outstanding_children == 0) {
      FinishSession(s);
    }
  }

  /// Lines 12-13 / 19-21: the local answer, then the reply upward. The
  /// final local state drives the answer (fast sessions never merged, so
  /// it is the line-1 state, as in Alg. 1). In the protocol, fast-phase
  /// peers address their states to the nearest slow ancestor, so a fast
  /// session's reply carries its children's states unmerged; the reply is
  /// encoded once, one frame per state, and kept as the reply cache.
  void FinishSession(Session& s) {
    RIPPLE_CHECK(!s.finished && "session finished twice");
    Answer answer;
    {
      obs::ScopedTimer cpu(driver_->profiler(), s.peer);
      answer = policy_->ComputeLocalAnswer(overlay_->GetPeer(s.peer).store,
                                           s.query, s.local);
    }
    const size_t tuples = policy_->AnswerTupleCount(answer);
    if constexpr (Driver::kConvergecast) {
      policy_->MergeAnswer(&s.answer, std::move(answer), s.query);
    } else if (tuples > 0) {
      driver_->SendAnswer(s, std::move(answer), tuples);
    }
    obs::Tracer* tracer = driver_->tracer();
    if (tracer != nullptr && s.span != obs::kNoSpan) {
      obs::Span& sp = tracer->span(s.span);
      sp.state_tuples = policy_->StateTupleCount(s.local);
      sp.answer_tuples = tuples;
      tracer->EndSpan(s.span, driver_->Now());
    }
    s.finished = true;
    if (s.root) {
      // The whole tree's answer is in: finalize it for the client.
      if constexpr (Driver::kConvergecast) {
        policy_->FinalizeAnswer(&s.answer, s.query);
      }
      driver_->OnRootFinished();
      if constexpr (!Driver::kConvergecast) return;
    }
    net::Envelope env = ReplyEnvelope(s, 0);
    wire::Buffer buf;
    if (s.root) {
      codec_.EncodeAnswerMessage(env, s.answer, &buf);
    } else {
      s.bundle.push_back(s.local);
      for (const LocalState& st : s.bundle) {
        const size_t bytes = codec_.EncodeResponseFrame(env, st, &buf);
        s.reply_parts.push_back({bytes, policy_->StateTupleCount(st)});
      }
      if (Driver::kConvergecast && policy_->AnswerTupleCount(s.answer) > 0) {
        env.kind = net::MessageKind::kAnswer;
        codec_.EncodeAnswerMessage(env, s.answer, &buf);
      }
    }
    s.reply = buf.Take();
    s.bundle = {};
    s.candidates = {};
    SendReply(s, /*retransmit=*/false);
    if (s.forgotten) sessions_.erase(s.id);
  }

  net::Envelope ReplyEnvelope(const Session& s, int attempt) const {
    return net::Envelope{
        s.origin_req, s.peer, s.requester,
        s.root ? net::MessageKind::kAnswer : net::MessageKind::kResponse,
        attempt, TraceFor(s.trace_id, s.span)};
  }

  /// Ships session `s`'s reply cache to its requester.
  void SendReply(Session& s, bool retransmit) {
    const net::Envelope env = ReplyEnvelope(s, retransmit ? 1 : 0);
    driver_->OnReplySent(s, retransmit);
    Journal(retransmit ? obs::JournalEventKind::kRetransmit
                       : obs::JournalEventKind::kFrameSend,
            s.peer, env, s.reply.size());
    driver_->Send(env, std::vector<uint8_t>(s.reply));
  }

  /// Issues a new query forward from session `s`, snapshotting the
  /// encoded frame so every (re)transmission is byte-identical.
  void NewRequest(Session& s, PeerId target, const GlobalState& state,
                  Area area, int r) {
    const uint64_t id = driver_->NewRequestId(s);
    PendingRequest rq;
    rq.requester = s.id;
    rq.from = s.peer;
    rq.target = target;
    rq.trace = TraceFor(s.trace_id, s.span);
    rq.tuples = policy_->GlobalStateTupleCount(state);
    rq.timeout = driver_->retry().timeout;
    const net::Envelope env{id, s.peer, target, net::MessageKind::kQuery, 0,
                            rq.trace};
    wire::Buffer buf;
    driver_->EncodeQuery(codec_, env, s.query, state, area, r, &buf);
    rq.frame = buf.Take();
    pending_.emplace(id, std::move(rq));
    Transmit(id);
  }

  /// One (re)transmission of forward `id`, covered by a timeout when the
  /// driver retransmits. Both drivers' transports only queue deliveries,
  /// so `rq` outlives the Send.
  void Transmit(uint64_t id) {
    PendingRequest& rq = pending_.at(id);
    rq.attempt += 1;
    driver_->OnQuerySent(rq);
    const net::Envelope env{id, rq.from, rq.target, net::MessageKind::kQuery,
                            rq.attempt, rq.trace};
    Journal(rq.attempt > 1 ? obs::JournalEventKind::kRetransmit
                           : obs::JournalEventKind::kFrameSend,
            rq.from, env, rq.frame.size());
    driver_->Send(env, std::vector<uint8_t>(rq.frame));
    if (driver_->retransmits()) {
      rq.timer = driver_->ArmTimer(rq.timeout, [this, id] { OnTimeout(id); });
    }
  }

  void OnTimeout(uint64_t id) {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    PendingRequest& rq = it->second;
    // A crashed requester stops timing out; its own parent handles it.
    if (!driver_->Alive(rq.from)) return;
    const bool retrying = rq.strikes < driver_->retry().max_retries;
    driver_->OnTimeout(rq, retrying);
    obs::Span* sp = driver_->tracer() == nullptr
                        ? nullptr
                        : SpanOf(sessions_.at(rq.requester));
    if (sp != nullptr) sp->timeouts += 1;
    if (!retrying) {
      // The retry budget for this link is spent: degrade gracefully.
      const PendingRequest lost = std::move(rq);
      pending_.erase(it);
      driver_->OnGiveUp(id, lost);
      ChildFailed(sessions_.at(lost.requester));
      return;
    }
    rq.strikes += 1;
    rq.timeout = net::BackedOffTimeout(rq.timeout, driver_->retry());
    if (sp != nullptr) sp->retries += 1;
    Transmit(id);
  }

  const Overlay* overlay_;
  const Policy* policy_;
  Codec codec_;
  Driver* driver_;
  std::unordered_map<int64_t, Session> sessions_;
  std::unordered_map<uint64_t, PendingRequest> pending_;
  int64_t next_session_ = 0;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_PEER_CORE_H_
