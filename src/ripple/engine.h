#ifndef RIPPLE_RIPPLE_ENGINE_H_
#define RIPPLE_RIPPLE_ENGINE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/kernel_counters.h"
#include "net/metrics.h"
#include "net/traffic.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "overlay/types.h"
#include "ripple/api.h"
#include "ripple/policy.h"
#include "ripple/wire_codec.h"
#include "wire/buffer.h"

namespace ripple {

/// The generic RIPPLE engine: one implementation of the paper's
/// Algorithms 1 (fast), 2 (slow) and 3 (ripple), shared by every query
/// policy and every overlay.
///
/// The engine executes the recursive RPCs of the paper as recursive calls
/// over in-process peers, while accounting latency exactly as Lemmas 1-3
/// do: `fast` contacts all relevant links at once, so children combine
/// with 1 + max; `slow`/`ripple` wait for each prioritized link's response
/// before the next forward, so children combine additively.
///
/// This engine is the analytic model of a *perfect* network: it ignores
/// the fault/retry/deadline fields of the QueryRequest and always returns
/// complete results (AsyncEngine in sim/async_engine.h honors them).
///
/// Overlay requirements: `Area`, `GetPeer(PeerId)` exposing `.links`
/// (each with `.target` and `.region`) and `.store`, `FullArea()`,
/// `static bool IntersectArea(a, b, out)` writing the cut into `out` and
/// returning false for empty intersections, and `AreaWireSize(area)`,
/// the byte count of its `EncodeArea`.
template <typename Overlay, typename Policy>
  requires QueryPolicy<Policy, typename Overlay::Area>
class Engine {
 public:
  using Area = typename Overlay::Area;
  using Query = typename Policy::Query;
  using LocalState = typename Policy::LocalState;
  using GlobalState = typename Policy::GlobalState;
  using Answer = typename Policy::Answer;
  using Request = QueryRequest<Policy>;
  using Result = QueryResult<Answer>;

  /// The overlay must outlive the engine.
  Engine(const Overlay* overlay, Policy policy)
      : overlay_(overlay), policy_(std::move(policy)) {}

  /// Processes `request.query` from `request.initiator` with the given
  /// ripple parameter and optional initial global state.
  Result Run(const Request& request) const {
    // Fresh per-query scratch: the arena backing the kernels' temporary
    // columns rewinds to empty, and the work counters start from zero so
    // the flush below attributes exactly this query's work.
    PerQueryArena().Reset();
    ResetKernelCounters();
    RunContext ctx;
    ctx.initiator = request.initiator;
    {
      // Every query frame of this run carries the same query bytes:
      // encode them once, and price each frame from sizes.
      wire::Buffer scratch;
      ctx.query_bytes = Codec().QueryWireSize(request.query, &scratch);
    }
    // Head sampling: the tracer follows the request's sampling decision,
    // so journal mirroring records exactly the sampled queries.
    // Idempotent when the caller already stamped it.
    sink_.BeginQuery(request.trace_id);
    const GlobalState initial =
        request.initial_state.has_value()
            ? *request.initial_state
            : policy_.InitialGlobalState(request.query);
    const NodeOutcome outcome =
        Process(request.initiator, request.query, initial,
                overlay_->FullArea(), request.ripple.hops(), &ctx);
    ctx.stats.latency_hops = outcome.latency;
    policy_.FinalizeAnswer(&ctx.answer, request.query);
    net::RecordTrafficMetrics(ctx.traffic);
    obs::FlushKernelCounters();
    Result result;
    result.answer = std::move(ctx.answer);
    result.stats = ctx.stats;
    return result;
  }

  const Policy& policy() const { return policy_; }

  /// Attaches the observability sink (obs/sink.h); its instruments must
  /// outlive all Run() calls and are not owned. The tracer records one
  /// span per peer visit (phase, remaining r, links pruned/forwarded,
  /// states merged, tuples carried) with logical hop timestamps matching
  /// the Lemma 1-3 accounting. The recursive engine ships no frames (it
  /// only prices them), so its journal sees only the tracer's mirrored
  /// spans of head-sampled queries. The profiler's message/tuple charges
  /// mirror QueryStats exactly (each message charged once, at its
  /// sender), and it adds per-peer spans, fan-out high-water marks and
  /// policy CPU. QueryStats are identical with or without a sink.
  void SetSink(const obs::Sink& sink) { sink_ = sink; }
  /// The sink's tracer, which the seeded drivers record bootstrap spans
  /// into.
  obs::Tracer* tracer() const { return sink_.tracer(); }

 private:
  struct RunContext {
    Answer answer{};
    QueryStats stats;
    net::WireTraffic traffic;
    PeerId initiator = kInvalidPeer;
    size_t query_bytes = 0;  // the query's encoded size, priced once
  };

  // Byte charges. The recursive engine never ships bytes — it is the
  // analytic model — but it prices every charged message through the
  // same WireCodec the async engine transmits with: each frame size is
  // the codec's sum of the fixed header and the size functions that sit
  // beside the payload encoders (bound to them by wire_test), so
  // bytes_on_wire agrees between the engines (asserted by the
  // cross-validation tests) without encoding a frame.
  WireCodec<Overlay, Policy> Codec() const {
    return WireCodec<Overlay, Policy>(overlay_, &policy_);
  }

  /// Charges one frame at its sender, exactly where the async engine
  /// charges it: stats, the traffic breakdown and the sink.
  void Charge(PeerId from, PeerId to, uint64_t tuples, uint64_t bytes,
              uint64_t* kind_bytes, RunContext* ctx) const {
    ctx->stats.messages += 1;
    ctx->stats.tuples_shipped += tuples;
    ctx->stats.bytes_on_wire += bytes;
    *kind_bytes += bytes;
    ctx->traffic.frames += 1;
    sink_.Charge(from, to, tuples, bytes);
  }

  /// What a processed peer reports back towards its nearest slow-phase
  /// ancestor: one merged state for slow-phase peers, or the bundle of all
  /// per-peer states in a fast-phase subtree (Alg. 3 keeps forwarding the
  /// same ancestor address `u` through the fast phase, so every state in
  /// the subtree flows to that ancestor).
  struct NodeOutcome {
    std::vector<LocalState> states;
    uint64_t latency = 0;
  };

  NodeOutcome Process(PeerId w, const Query& query, const GlobalState& sg,
                      const Area& restrict_area, int r, RunContext* ctx,
                      uint32_t parent_span = obs::kNoSpan,
                      double arrival = 0.0) const {
    const auto& peer = overlay_->GetPeer(w);
    ctx->stats.peers_visited += 1;
    // `arrival` is this visit's position on the logical hop clock (the
    // Lemma 1-3 clock: 1 hop per forward); it exists purely for tracing
    // and never feeds back into stats or results.
    // Span pointers are re-fetched after every child visit: recording
    // the child's span may move the tracer's storage.
    const uint32_t span = sink_.BeginVisit(w, parent_span, r, arrival);
    if (obs::Span* sp = sink_.span(span)) {
      sp->tuples_in = policy_.GlobalStateTupleCount(sg);
    }

    // Lines 1-2 of Algorithms 1/2/3. Local policy work is timed per peer
    // (recursion below is excluded — each peer pays for its own scopes).
    LocalState local;
    GlobalState global;
    {
      const obs::ScopedTimer cpu = sink_.PolicyCpu(w);
      local = policy_.ComputeLocalState(peer.store, query, sg);
      global = policy_.ComputeGlobalState(query, sg, local);
    }

    // Each link's cut of the restriction area is written here in place;
    // a child's visit ends before the next link is cut.
    Area area;
    NodeOutcome out;
    if (r > 0) {
      // Slow phase (Alg. 3 lines 4-11; degenerates to Alg. 2): prioritized
      // sequential forwarding with state feedback between iterations.
      struct Candidate {
        PeerId target;
        Area area;
        double priority;
      };
      // Each candidate goes in after every one of equal or higher
      // priority: a stable sort by descending priority.
      std::vector<Candidate> candidates;
      candidates.reserve(peer.links.size());
      for (const auto& link : peer.links) {
        if (!Overlay::IntersectArea(link.region, restrict_area, &area)) {
          continue;
        }
        const double priority = policy_.LinkPriority(query, area);
        const auto at = std::upper_bound(
            candidates.begin(), candidates.end(), priority,
            [](double p, const Candidate& c) { return p > c.priority; });
        candidates.insert(at, Candidate{link.target, area, priority});
      }
      for (const Candidate& c : candidates) {
        // Relevance is re-evaluated with the state updated so far: links
        // pruned by knowledge from earlier iterations are never contacted.
        if (!policy_.IsLinkRelevant(query, global, c.area)) {
          if (obs::Span* sp = sink_.span(span)) sp->links_pruned += 1;
          continue;
        }
        Charge(w, c.target, policy_.GlobalStateTupleCount(global),
               Codec().QueryMessageSize(ctx->query_bytes, global, c.area,
                                        r - 1),
               &ctx->traffic.bytes_query, ctx);
        if (obs::Span* sp = sink_.span(span)) sp->links_forwarded += 1;
        sink_.QueueDepth(w, 1);  // slow phase is sequential
        // The child receives the query one hop after everything forwarded
        // so far has come back: slow-phase children are sequential.
        NodeOutcome child =
            Process(c.target, query, global, c.area, r - 1, ctx, span,
                    arrival + static_cast<double>(out.latency) + 1.0);
        out.latency += 1 + child.latency;
        // Response messages: one per state flowing back to us, charged to
        // the direct child (the convergecast representative of its
        // subtree, matching the protocol's state addressing).
        for (const LocalState& s : child.states) {
          Charge(c.target, w, policy_.StateTupleCount(s),
                 Codec().ResponseFrameSize(s), &ctx->traffic.bytes_response,
                 ctx);
        }
        if (obs::Span* sp = sink_.span(span)) {
          sp->states_merged += child.states.size();
        }
        {
          const obs::ScopedTimer cpu = sink_.PolicyCpu(w);
          policy_.MergeLocalStates(query, &local, child.states);
          global = policy_.ComputeGlobalState(query, sg, local);
        }
      }
      out.states.push_back(std::move(local));
    } else {
      // Fast phase (Alg. 3 lines 13-17 == Alg. 1): contact all relevant
      // links at once; no feedback between siblings, so the state snapshot
      // taken above is what every child receives.
      uint64_t max_child_latency = 0;
      uint64_t forwarded = 0;
      for (const auto& link : peer.links) {
        if (!Overlay::IntersectArea(link.region, restrict_area, &area)) {
          continue;
        }
        if (!policy_.IsLinkRelevant(query, global, area)) {
          if (obs::Span* sp = sink_.span(span)) sp->links_pruned += 1;
          continue;
        }
        Charge(w, link.target, policy_.GlobalStateTupleCount(global),
               Codec().QueryMessageSize(ctx->query_bytes, global, area, 0),
               &ctx->traffic.bytes_query, ctx);
        if (obs::Span* sp = sink_.span(span)) sp->links_forwarded += 1;
        // Fast-phase children are contacted at once: all arrive one hop
        // after us.
        NodeOutcome child = Process(link.target, query, global, area, 0, ctx,
                                    span, arrival + 1.0);
        forwarded += 1;
        max_child_latency = std::max(max_child_latency, 1 + child.latency);
        // Fast-phase states pass through to the nearest slow ancestor.
        for (LocalState& s : child.states) {
          out.states.push_back(std::move(s));
        }
      }
      // Fast-phase fan-out: every relevant link is outstanding at once.
      if (forwarded > 0) sink_.QueueDepth(w, forwarded);
      out.latency = forwarded > 0 ? max_child_latency : 0;
      out.states.push_back(std::move(local));
    }

    // Lines 12-13 / 20-21: extract and ship the local qualifying tuples.
    // The final (post-merge) local state drives the extraction, which is
    // precisely how slow-phase knowledge suppresses non-answers.
    Answer answer;
    {
      const obs::ScopedTimer cpu = sink_.PolicyCpu(w);
      answer = policy_.ComputeLocalAnswer(peer.store, query,
                                          out.states.back());
    }
    const size_t answer_tuples = policy_.AnswerTupleCount(answer);
    if (answer_tuples > 0) {  // answer delivery to the initiator
      Charge(w, ctx->initiator, answer_tuples,
             Codec().AnswerMessageSize(answer), &ctx->traffic.bytes_answer,
             ctx);
    }
    if (obs::Span* sp = sink_.span(span)) {
      sp->state_tuples = policy_.StateTupleCount(out.states.back());
      sp->answer_tuples = answer_tuples;
    }
    sink_.EndVisit(span, arrival + static_cast<double>(out.latency));
    policy_.MergeAnswer(&ctx->answer, std::move(answer), query);
    return out;
  }

  const Overlay* overlay_;
  Policy policy_;
  obs::Sink sink_;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_ENGINE_H_
