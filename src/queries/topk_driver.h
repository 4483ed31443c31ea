#ifndef RIPPLE_QUERIES_TOPK_DRIVER_H_
#define RIPPLE_QUERIES_TOPK_DRIVER_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "queries/seeded_run.h"
#include "queries/topk.h"
#include "ripple/api.h"
#include "ripple/engine.h"

namespace ripple {

/// Seeded top-k initiation.
///
/// When fewer than k tuples are known, no sound algorithm may prune any
/// region (any region could fill the missing ranks — Algorithm 8's
/// `m < k` branch), so an initiator holding fewer than k local tuples
/// floods its first hops. At the paper's density (22,000 tuples over
/// 2^14+ peers, ~1.4 per peer) that flood covers most of the network and
/// drowns the f+ pruning the framework is built around.
///
/// The fix mirrors what DSL and SSP do for skylines (start processing at
/// the peer owning the most promising spot): the initiator first routes
/// the query to the peer owning the scoring function's peak point, then
/// walks along the locally best link regions, folding each peer's local
/// state into a seed state, until k tuples are witnessed. Processing then
/// starts from the peak owner with that seed. Every bootstrap hop is
/// charged to the query (routing + walk are sequential, so they add to
/// latency). Soundness is untouched: seed states are true claims, and the
/// main run still covers the whole domain, so the seed peers' tuples are
/// collected by the run itself.
/// Generic over the engine: works for both the recursive `Engine` (whose
/// Run ignores fault/retry/deadline) and the discrete-event `AsyncEngine`
/// (which honors them; the bootstrap itself runs on the analytic perfect
/// network either way). The request's `initiator` is where the bootstrap
/// routing starts; the engine run proper is initiated at the peak owner
/// with the witnessed seed state.
/// Phase 2 of the seeded initiation in isolation: the greedy walk from
/// `start` along locally-best link regions, folding each walked peer's
/// local state into the returned seed until k tuples are witnessed (or
/// the 64-step bound / a dead end stops it). Pure overlay analytics — no
/// engine, no tracing — so the live-overlay client (net::NetClient
/// callers) can reproduce the simulator's bootstrap exactly; `*path`
/// receives the walked peers in order for charging/tracing by the caller.
template <typename Overlay>
TopKState TopKSeedWalk(const Overlay& overlay, const TopKPolicy& policy,
                       const TopKQuery& query, PeerId start,
                       std::vector<PeerId>* path) {
  TopKState seed;
  PeerId current = start;
  // The walked peers, in order; at most 64, so a linear search is cheap.
  std::vector<PeerId> own;
  std::vector<PeerId>& walked = path != nullptr ? *path : own;
  const auto first = static_cast<std::ptrdiff_t>(walked.size());
  const auto was_walked = [&](PeerId p) {
    return std::find(walked.begin() + first, walked.end(), p) != walked.end();
  };
  // The walk is bounded; if the network simply has fewer than k tuples the
  // main run degenerates to (a correct) broadcast anyway. Each step's peer
  // is new to the walk: `next` is picked among unwalked links.
  for (int step = 0; step < 64; ++step) {
    walked.push_back(current);
    const auto& peer = overlay.GetPeer(current);
    const TopKState local = policy.ComputeLocalState(peer.store, query, seed);
    seed = policy.ComputeGlobalState(query, seed, local);
    if (seed.m >= query.k) break;
    // Continue into the unwalked link whose region promises the best
    // tuples (Algorithm 9's priority).
    PeerId next = kInvalidPeer;
    double best = -std::numeric_limits<double>::infinity();
    for (const auto& link : peer.links) {
      if (was_walked(link.target)) continue;
      const double bound = query.scorer->UpperBound(link.region);
      if (next == kInvalidPeer || bound > best) {
        best = bound;
        next = link.target;
      }
    }
    if (next == kInvalidPeer) break;
    current = next;
  }
  return seed;
}

template <typename Overlay, typename EngineT>
typename EngineT::Result SeededTopK(const Overlay& overlay,
                                    const EngineT& engine,
                                    const QueryRequest<TopKPolicy>& request) {
  const TopKQuery& query = request.query;
  // Phase 1: route to the peer owning the score peak. With a tracer
  // attached the route is kept, so the trace covers exactly the peers the
  // stats charge.
  const Point peak = query.scorer->Peak(overlay.domain());
  uint64_t hops = 0;
  std::vector<PeerId> route_path;
  const PeerId start =
      overlay.RouteFrom(request.initiator, peak, &hops,
                        engine.tracer() ? &route_path : nullptr);

  // Phase 2: greedy walk gathering local states until k tuples are known
  // (the walk itself is shared with the live-overlay client). When the
  // caller already supplied a seed witnessing >= k tuples — the
  // initiator-side bound cache (cache/query_cache.h) — the walk is
  // skipped outright: the cached claim is at least as tight as anything
  // a walk could witness, and FOLDING a cached seed into walked states
  // would double-count overlapping tuple sets (Algorithm 7's counts only
  // add over disjoint sets), so it is one source or the other, never both.
  std::vector<PeerId> walk_path;
  QueryRequest<TopKPolicy> seeded = request;
  if (!request.initial_state.has_value() ||
      request.initial_state->m < query.k) {
    seeded.initial_state =
        TopKSeedWalk(overlay, engine.policy(), query, start, &walk_path);
  }

  // Phase 3: the RIPPLE run proper, seeded, initiated at the peak owner.
  seeded.initiator = start;
  return RunSeeded(engine, seeded, hops, route_path, walk_path);
}

}  // namespace ripple

#endif  // RIPPLE_QUERIES_TOPK_DRIVER_H_
