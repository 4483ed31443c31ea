#ifndef RIPPLE_RIPPLE_PEER_CORE_H_
#define RIPPLE_RIPPLE_PEER_CORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/envelope.h"
#include "net/fault.h"
#include "net/peers.h"
#include "obs/sink.h"
#include "overlay/types.h"
#include "ripple/policy.h"
#include "ripple/slab.h"
#include "ripple/wire_codec.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace ripple {

/// One query forward awaiting its response. Retransmissions reuse the
/// entry (and its message id) and reship `frame` — the encoded bytes of
/// the first attempt — so every copy is byte-identical and receivers can
/// dedup by id. The entry is freed once the response is consumed or the
/// requester gives up on the link.
struct PendingRequest {
  uint64_t id = 0;             // message id, shared by every copy
  uint64_t requester = 0;      // handle of the session awaiting the reply
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
/// pass in a row, after which the session continues without the subtree
/// and its reply carries wire::kFrameFlagIncomplete. A finished session's
/// encoded reply is its reply cache, replayed byte-identically to a
/// duplicate query; a running one acks instead, which restores the
/// requester's patience.
///
/// Sessions and forwards live in slabs (ripple/slab.h) and are named by
/// generation-checked handles: a freed entry keeps its buffers for the
/// next occupant, and a handle that outlived its entry — a late response,
/// ack or timer for a forward that is gone — finds nothing. The driver
/// mints each forward's message id and maps it back to the forward's
/// handle (`NewRequestId`, `ForwardOf`); a session's handle is what the
/// driver's dedup window stores.
///
/// `Driver` supplies the clock, timers, transport, observability sink,
/// counters and dedup window through plain member calls (see AsyncEngine
/// and PeerDaemon for the two drivers). Its `Send(env, bytes)` borrows
/// the bytes for the duration of the call — they live in the core's
/// encode buffer or a snapshot it keeps — so each driver copies them into
/// a datagram it owns, and a driver's Send must not re-enter the core.
/// The driver also fixes in code where answers go:
/// `Driver::kConvergecast == false` hands each local answer to the driver
/// (the simulator's direct channel to the initiator); true folds answers
/// up the query tree inside the reply datagrams, so the root session
/// replies to its client with the finalized answer (the live daemon).
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
    uint64_t id = 0;                  // handle in the core's session slab
    PeerId peer = kInvalidPeer;
    PeerId requester = kInvalidPeer;  // parent peer, client, or none
    uint64_t origin_req = 0;          // id of the forward that opened it
    bool root = false;                // opened by the initiator or a client
    uint64_t trace_id = 0;
    uint32_t span = obs::kNoSpan;     // kNoSpan when tracing is off
    Query query{};            // Q as decoded at this peer
    Area area{};              // the region this peer was asked to cover
    GlobalState incoming{};   // S^G as received
    GlobalState global{};     // S^G_w, updated between iterations
    LocalState local{};       // S^L_w
    int r = 0;
    bool fast = false;
    bool finished = false;
    bool forgotten = false;  // dropped by the dedup window: free at finish
    bool incomplete = false;  // a subtree is missing from the reply
    // Slow phase: prioritized candidates still to consider, each a link
    // of this peer; its restricted area is cut again from `area` when the
    // walk reaches it, so a candidate holds no area of its own.
    struct Candidate {
      uint32_t link;
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

  /// Points the core at another overlay and policy (a pooled driver's next
  /// run); only valid while no session or forward is held.
  void Rebind(const Overlay* overlay, const Policy* policy) {
    RIPPLE_CHECK(sessions_.live() == 0 && forwards_.live() == 0);
    overlay_ = overlay;
    policy_ = policy;
    codec_ = Codec(overlay, policy);
  }

  /// Frees every session and forward once a run is over. Entries keep
  /// their buffers for the next run; returns the bytes the core holds.
  size_t ReleaseAll() {
    sessions_.ForEachLive(Scrub);
    sessions_.ReleaseAll();
    forwards_.ReleaseAll();
    bundle_.clear();
    size_t bytes = buf_.capacity() + bundle_.capacity() * sizeof(LocalState) +
                   targets_.capacity() * sizeof(targets_[0]);
    sessions_.ForEachHeld([&bytes](const Session& s) {
      bytes += sizeof(Session) + s.reply.capacity() +
               s.reply_parts.capacity() * sizeof(s.reply_parts[0]) +
               s.candidates.capacity() * sizeof(s.candidates[0]) +
               s.bundle.capacity() * sizeof(LocalState);
    });
    forwards_.ForEachHeld([&bytes](const PendingRequest& rq) {
      bytes += sizeof(PendingRequest) + rq.frame.capacity();
    });
    return bytes;
  }

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
    Session& s = NewSession(peer, kInvalidPeer, 0, /*root=*/true, trace_id);
    s.query = std::move(query);
    s.area = overlay_->FullArea();
    s.incoming = std::move(state);
    SetRipple(s, r);
    Start(s, obs::kNoSpan);
  }

  /// A query frame whose header decoded to `env`, with `r` positioned at
  /// the codec payload. `wire_bytes` is the datagram's size.
  /// The query and state are decoded straight into a recycled session,
  /// so a top-k scorer reuses the object its last occupant decoded.
  void OnQuery(const net::Envelope& env, wire::Reader* r, size_t wire_bytes) {
    Session& s = NewSession(env.to, env.from, env.id,
                            net::IsClientId(env.from), env.trace.trace_id);
    int64_t hops = 0;
    if (!codec_.DecodeQueryPayload(r, &s.query, &s.incoming, &s.area,
                                   &hops) ||
        !r->ok() || r->remaining() != 0) {
      // Dropped without entering the dedup window: the requester's
      // retransmission (possibly clean this time) must not be suppressed.
      FreeSession(s);
      driver_->RejectFrame(/*truncated=*/false);
      return;
    }
    sink().Frame(obs::JournalEventKind::kFrameRecv, env.to, env, wire_bytes,
                 driver_->Now());
    SetRipple(s, static_cast<int>(hops));
    driver_->Remember(env, s.id);
    // The receiver's span parents off whatever the frame header carried.
    Start(s, env.trace.parent_span);
  }

  /// A duplicate of the query that opened session `sid`: replay the
  /// cached reply of a finished session, or ack that it is still running.
  void Replay(uint64_t sid) {
    Session* found = sessions_.Find(sid);
    RIPPLE_CHECK(found != nullptr && "replaying a freed session");
    Session& s = *found;
    if (s.finished) {
      SendReply(s, /*retransmit=*/true);
      return;
    }
    const net::Envelope env{s.origin_req, s.peer, s.requester,
                            net::MessageKind::kAck, 0,
                            TraceFor(s.trace_id, s.span)};
    buf_.Clear();
    const size_t bytes = codec_.EncodeAckMessage(env, &buf_);
    driver_->OnAckSent(s, bytes);
    sink().Frame(obs::JournalEventKind::kFrameSend, s.peer, env, bytes,
                 driver_->Now());
    driver_->Send(env, buf_.bytes());
  }

  /// A reply datagram for forward `env.id`: back-to-back state frames,
  /// then (convergecast only) at most one partial-answer frame. Decoding
  /// is all-or-nothing; a rejected datagram leaves recovery to the
  /// retransmission timer.
  void OnResponse(const net::Envelope& env,
                  const std::vector<uint8_t>& datagram) {
    const uint64_t fh = driver_->ForwardOf(env.id);
    PendingRequest* found = forwards_.Find(fh);
    if (found == nullptr) {
      // A duplicate of a consumed response, or one arriving after the
      // requester gave up on the link: either way the forward's slot was
      // freed, and perhaps reused by a newer forward this must not reach.
      driver_->OnStaleResponse(env.id);
      return;
    }
    bundle_.clear();
    Answer partial{};
    bool has_partial = false;
    bool incomplete = false;
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
      incomplete |= (h.trace.flags & wire::kFrameFlagIncomplete) != 0;
      const size_t frame_end = r.position() + wire::FramePayloadSize(h);
      if (h.tag == static_cast<uint8_t>(net::MessageKind::kResponse)) {
        if (bundle_.empty()) {
          first = net::Envelope{h.id, h.from, h.to, net::MessageKind::kResponse,
                                0, h.trace};
        }
        ok = codec_.DecodeResponsePayload(&r, &bundle_.emplace_back());
      } else if (Driver::kConvergecast &&
                 h.tag == static_cast<uint8_t>(net::MessageKind::kAnswer)) {
        ok = codec_.DecodeAnswerPayload(&r, &partial);
        has_partial = true;
      } else {
        ok = false;
      }
      ok = ok && r.ok() && r.position() == frame_end;
    }
    if (!ok || bundle_.empty()) {
      driver_->RejectFrame(ferr == wire::FrameError::kTruncated);
      return;
    }
    PendingRequest& rq = *found;
    sink().Frame(obs::JournalEventKind::kFrameRecv, rq.from, first,
                 datagram.size(), driver_->Now());
    driver_->CancelTimer(rq.timer);
    Session& s = RequesterOf(rq);
    forwards_.Release(fh);
    s.incomplete |= incomplete;
    if (has_partial) {
      policy_->MergeAnswer(&s.answer, std::move(partial), s.query);
    }
    ChildResponded(s, bundle_);
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
    sink().Frame(obs::JournalEventKind::kFrameRecv, ack.to, ack,
                 datagram.size(), driver_->Now());
    if (PendingRequest* rq = forwards_.Find(driver_->ForwardOf(id))) {
      rq->strikes = 0;
    }
  }

  /// The dedup window no longer remembers session `sid`'s query, so the
  /// session can never be replayed: free it now, or when it finishes.
  void Forget(uint64_t sid) {
    Session* s = sessions_.Find(sid);
    if (s == nullptr) return;
    if (s->finished) {
      FreeSession(*s);
    } else {
      s->forgotten = true;
    }
  }

  /// Whether forward `handle` is still awaiting its response.
  bool Holds(uint64_t handle) const {
    return forwards_.Find(handle) != nullptr;
  }
  size_t pending_forwards() const { return forwards_.live(); }
  /// Calls f(forward) for every forward still awaiting its response.
  template <typename F>
  void ForEachPending(F&& f) const {
    forwards_.ForEachLive(std::forward<F>(f));
  }
  size_t sessions_held() const { return sessions_.live(); }
  size_t open_sessions() const {
    size_t open = 0;
    sessions_.ForEachLive([&open](const Session& s) { open += !s.finished; });
    return open;
  }

 private:
  /// A session from the slab with its identity set; the caller fills in
  /// the query and state, then SetRipple.
  Session& NewSession(PeerId peer, PeerId requester, uint64_t origin_req,
                      bool root, uint64_t trace_id) {
    uint64_t id;
    Session& s = sessions_.Acquire(&id);
    s.id = id;
    s.peer = peer;
    s.requester = requester;
    s.origin_req = origin_req;
    s.root = root;
    s.trace_id = trace_id;
    s.span = obs::kNoSpan;
    s.finished = false;
    s.forgotten = false;
    s.incomplete = false;
    return s;
  }

  static void SetRipple(Session& s, int r) {
    s.r = r;
    s.fast = r <= 0;
  }

  /// Empties a session's buffers (keeping their capacity) and drops its
  /// policy values; its query stays, for the next decode to reuse.
  static void Scrub(Session& s) {
    s.candidates.clear();
    s.next_candidate = 0;
    s.outstanding_children = 0;
    s.bundle.clear();
    s.reply.clear();
    s.reply_parts.clear();
    s.incoming = GlobalState{};
    s.global = GlobalState{};
    s.local = LocalState{};
    s.answer = Answer{};
  }

  void FreeSession(Session& s) {
    Scrub(s);
    sessions_.Release(s.id);
  }

  /// The session a live forward reports to: it cannot finish, so cannot
  /// be freed, while the forward is pending.
  Session& RequesterOf(const PendingRequest& rq) {
    Session* s = sessions_.Find(rq.requester);
    RIPPLE_CHECK(s != nullptr && "forward outlived its session");
    return *s;
  }

  const obs::Sink& sink() const { return driver_->sink(); }

  /// Lines 1-2 of the procedure, then the fast fan-out or the first step
  /// of the slow walk.
  void Start(Session& s, uint32_t wire_parent_span) {
    driver_->OnSessionOpened(s);
    s.span = sink().BeginVisit(s.peer, wire_parent_span, s.r, driver_->Now());
    if (obs::Span* sp = sink().span(s.span)) {
      sp->tuples_in = policy_->GlobalStateTupleCount(s.incoming);
    }
    const auto& node = overlay_->GetPeer(s.peer);
    {
      const obs::ScopedTimer cpu = sink().PolicyCpu(s.peer);
      s.local = policy_->ComputeLocalState(node.store, s.query, s.incoming);
      s.global = policy_->ComputeGlobalState(s.query, s.incoming, s.local);
    }

    if (s.fast) {
      // Algorithm 1 / Algorithm 3 second loop: forward everywhere at
      // once with the state snapshot. The first `n` entries of `targets_`
      // are this visit's; each restricted area is cut in place.
      size_t n = 0;
      for (const auto& link : node.links) {
        if (n == targets_.size()) targets_.emplace_back();
        auto& [target, restricted] = targets_[n];
        if (!Overlay::IntersectArea(link.region, s.area, &restricted)) {
          continue;
        }
        if (!policy_->IsLinkRelevant(s.query, s.global, restricted)) {
          if (obs::Span* sp = sink().span(s.span)) sp->links_pruned += 1;
          continue;
        }
        target = link.target;
        ++n;
      }
      if (obs::Span* sp = sink().span(s.span)) sp->links_forwarded = n;
      if (n != 0) sink().QueueDepth(s.peer, n);
      s.outstanding_children = static_cast<int>(n);
      for (size_t i = 0; i < n; ++i) {
        NewRequest(s, targets_[i].first, s.global, targets_[i].second, 0);
      }
      if (s.outstanding_children == 0) FinishSession(s);
      return;
    }
    // Algorithm 2 / Algorithm 3 first loop: prioritized, sequential.
    // Each candidate goes in after every one of equal or higher priority:
    // a stable sort by descending priority that needs no scratch buffer.
    for (uint32_t i = 0; i < node.links.size(); ++i) {
      if (!Overlay::IntersectArea(node.links[i].region, s.area, &area_)) {
        continue;
      }
      const double priority = policy_->LinkPriority(s.query, area_);
      const auto at = std::upper_bound(
          s.candidates.begin(), s.candidates.end(), priority,
          [](double p, const auto& c) { return p > c.priority; });
      s.candidates.insert(at, typename Session::Candidate{i, priority});
    }
    AdvanceSlow(s);
  }

  /// Slow phase: contact the next relevant candidate or finish.
  void AdvanceSlow(Session& s) {
    const auto& links = overlay_->GetPeer(s.peer).links;
    while (s.next_candidate < s.candidates.size()) {
      const auto& link = links[s.candidates[s.next_candidate++].link];
      // Nonempty, as when the candidate was ranked.
      Overlay::IntersectArea(link.region, s.area, &area_);
      if (!policy_->IsLinkRelevant(s.query, s.global, area_)) {
        if (obs::Span* sp = sink().span(s.span)) sp->links_pruned += 1;
        continue;
      }
      if (obs::Span* sp = sink().span(s.span)) sp->links_forwarded += 1;
      sink().QueueDepth(s.peer, 1);
      NewRequest(s, link.target, s.global, area_, s.r - 1);
      return;  // wait for the response (or the retry budget)
    }
    FinishSession(s);
  }

  /// A child (or fast subtree) responded with a bundle of local states;
  /// the states may be moved out of `bundle`.
  void ChildResponded(Session& s, std::vector<LocalState>& bundle) {
    if (s.fast) {
      s.bundle.insert(s.bundle.end(), std::make_move_iterator(bundle.begin()),
                      std::make_move_iterator(bundle.end()));
      if (--s.outstanding_children == 0) FinishSession(s);
      return;
    }
    if (obs::Span* sp = sink().span(s.span)) {
      sp->states_merged += bundle.size();
    }
    {
      const obs::ScopedTimer cpu = sink().PolicyCpu(s.peer);
      policy_->MergeLocalStates(s.query, &s.local, bundle);
      s.global = policy_->ComputeGlobalState(s.query, s.incoming, s.local);
    }
    AdvanceSlow(s);
  }

  /// A child could not be reached within the retry budget: fold in what
  /// we have and continue without its subtree.
  void ChildFailed(Session& s) {
    s.incomplete = true;
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
      const obs::ScopedTimer cpu = sink().PolicyCpu(s.peer);
      answer = policy_->ComputeLocalAnswer(overlay_->GetPeer(s.peer).store,
                                           s.query, s.local);
    }
    const size_t tuples = policy_->AnswerTupleCount(answer);
    if constexpr (Driver::kConvergecast) {
      policy_->MergeAnswer(&s.answer, std::move(answer), s.query);
    } else if (tuples > 0) {
      driver_->SendAnswer(s, std::move(answer), tuples);
    }
    if (obs::Span* sp = sink().span(s.span)) {
      sp->state_tuples = policy_->StateTupleCount(s.local);
      sp->answer_tuples = tuples;
    }
    sink().EndVisit(s.span, driver_->Now());
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
    buf_.Clear();
    if (s.root) {
      codec_.EncodeAnswerMessage(env, s.answer, &buf_);
    } else {
      // The children's states, then this peer's own.
      const auto encode = [&](const LocalState& st) {
        const size_t bytes = codec_.EncodeResponseFrame(env, st, &buf_);
        s.reply_parts.push_back({bytes, policy_->StateTupleCount(st)});
      };
      s.reply_parts.reserve(s.bundle.size() + 1);
      for (const LocalState& st : s.bundle) encode(st);
      encode(s.local);
      if (Driver::kConvergecast && policy_->AnswerTupleCount(s.answer) > 0) {
        env.kind = net::MessageKind::kAnswer;
        codec_.EncodeAnswerMessage(env, s.answer, &buf_);
      }
    }
    s.reply.assign(buf_.bytes().begin(), buf_.bytes().end());
    s.bundle.clear();
    s.candidates.clear();
    SendReply(s, /*retransmit=*/false);
    if (s.forgotten) FreeSession(s);
  }

  /// The reply's header; it carries the incomplete bit when a subtree
  /// is missing, so the bit travels up to the client.
  net::Envelope ReplyEnvelope(const Session& s, int attempt) const {
    net::Envelope env{
        s.origin_req, s.peer, s.requester,
        s.root ? net::MessageKind::kAnswer : net::MessageKind::kResponse,
        attempt, TraceFor(s.trace_id, s.span)};
    if (s.incomplete) env.trace.flags |= wire::kFrameFlagIncomplete;
    return env;
  }

  /// Ships session `s`'s reply cache to its requester.
  void SendReply(Session& s, bool retransmit) {
    const net::Envelope env = ReplyEnvelope(s, retransmit ? 1 : 0);
    driver_->OnReplySent(s, retransmit);
    sink().Frame(retransmit ? obs::JournalEventKind::kRetransmit
                            : obs::JournalEventKind::kFrameSend,
                 s.peer, env, s.reply.size(), driver_->Now());
    driver_->Send(env, s.reply);
  }

  /// Issues a new query forward from session `s`, snapshotting the
  /// encoded frame so every (re)transmission is byte-identical.
  void NewRequest(Session& s, PeerId target, const GlobalState& state,
                  const Area& area, int r) {
    uint64_t fh;
    PendingRequest& rq = forwards_.Acquire(&fh);
    rq.id = driver_->NewRequestId(s, fh);
    rq.requester = s.id;
    rq.from = s.peer;
    rq.target = target;
    rq.trace = TraceFor(s.trace_id, s.span);
    rq.tuples = policy_->GlobalStateTupleCount(state);
    rq.attempt = 0;
    rq.strikes = 0;
    rq.timeout = driver_->retry().timeout;
    rq.timer = 0;
    const net::Envelope env{rq.id, s.peer, target, net::MessageKind::kQuery, 0,
                            rq.trace};
    buf_.Clear();
    driver_->EncodeQuery(codec_, env, s.query, state, area, r, &buf_);
    rq.frame.assign(buf_.bytes().begin(), buf_.bytes().end());
    Transmit(fh);
  }

  /// One (re)transmission of forward `fh`, covered by a timeout when the
  /// driver retransmits. Both drivers' transports only queue deliveries,
  /// so `rq` outlives the Send.
  void Transmit(uint64_t fh) {
    PendingRequest& rq = *forwards_.Find(fh);
    rq.attempt += 1;
    driver_->OnQuerySent(rq);
    const net::Envelope env{rq.id, rq.from, rq.target,
                            net::MessageKind::kQuery, rq.attempt, rq.trace};
    sink().Frame(rq.attempt > 1 ? obs::JournalEventKind::kRetransmit
                                : obs::JournalEventKind::kFrameSend,
                 rq.from, env, rq.frame.size(), driver_->Now());
    driver_->Send(env, rq.frame);
    if (driver_->retransmits()) {
      rq.timer = driver_->ArmTimer(rq.timeout, [this, fh] { OnTimeout(fh); });
    }
  }

  void OnTimeout(uint64_t fh) {
    PendingRequest* found = forwards_.Find(fh);
    if (found == nullptr) return;  // the forward resolved since
    PendingRequest& rq = *found;
    // A crashed requester stops timing out; its own parent handles it.
    if (!driver_->Alive(rq.from)) return;
    const bool retrying = rq.strikes < driver_->retry().max_retries;
    driver_->OnTimeout(rq, retrying);
    Session& s = RequesterOf(rq);
    obs::Span* sp = sink().span(s.span);
    if (sp != nullptr) sp->timeouts += 1;
    if (!retrying) {
      // The retry budget for this link is spent: degrade gracefully.
      driver_->OnGiveUp(rq);
      forwards_.Release(fh);
      ChildFailed(s);
      return;
    }
    rq.strikes += 1;
    rq.timeout = net::BackedOffTimeout(rq.timeout, driver_->retry());
    if (sp != nullptr) sp->retries += 1;
    Transmit(fh);
  }

  const Overlay* overlay_;
  const Policy* policy_;
  Codec codec_;
  Driver* driver_;
  Slab<Session> sessions_;
  Slab<PendingRequest> forwards_;
  // Scratch reused across calls, so the message path allocates only what
  // outlives a call: every frame is encoded in `buf_` and kept (when it
  // must be) as a snapshot in its session or forward; the slow walk cuts
  // a candidate's area in `area_`; a response's states are decoded into
  // `bundle_`; the fast fan-out cuts its targets' areas in `targets_`.
  wire::Buffer buf_;
  Area area_{};
  std::vector<LocalState> bundle_;
  std::vector<std::pair<PeerId, Area>> targets_;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_PEER_CORE_H_
