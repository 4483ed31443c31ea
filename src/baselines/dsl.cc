#include "baselines/dsl.h"

#include <algorithm>
#include <queue>

#include "geom/dominance.h"
#include "queries/skyline.h"
#include "store/local_algos.h"
#include "store/wire.h"
#include "wire/frame.h"

namespace ripple {

namespace {

/// Wire cost of one DSL message carrying a tuple set (the DSL skyline
/// query itself has no parameters, so payloads are all tuples).
uint64_t TupleFrameBytes(const TupleVec& tuples) {
  return wire::kFrameHeaderSize + TupleVecWireSize(tuples);
}

/// True when `s` contains a point dominating the entire zone.
bool ZoneDominated(const TupleVec& s, const Rect& zone) {
  for (const Tuple& t : s) {
    if (DominatesRect(t.key, zone)) return true;
  }
  return false;
}

/// Upper neighbors: the neighbor's zone abuts this zone on the hi side of
/// the (single) abutting dimension — the direction the DSL hierarchy grows.
bool IsUpperNeighbor(const Rect& mine, const Rect& other) {
  for (int d = 0; d < mine.dims(); ++d) {
    if (other.lo()[d] == mine.hi()[d]) return true;
    if (other.hi()[d] == mine.lo()[d]) return false;
  }
  return false;
}

}  // namespace

DslResult RunDslSkyline(const CanOverlay& overlay, PeerId initiator) {
  DslResult result;
  QueryStats& stats = result.stats;

  // Phase 1: route the query to the peer owning the origin of the domain.
  const Point origin = overlay.domain().lo();
  uint64_t route_hops = 0;
  const PeerId root = overlay.RouteFrom(initiator, origin, &route_hops);
  stats.latency_hops += route_hops;
  stats.messages += route_hops;
  stats.peers_visited += route_hops;  // forwarding peers handle the query
  stats.bytes_on_wire += route_hops * wire::kFrameHeaderSize;

  // Phase 2: breadth-first multicast waves from the root.
  struct Incoming {
    TupleVec points;
    uint64_t wave = 0;
    bool reached = false;
    bool processed = false;
  };
  std::vector<Incoming> state;
  // Peer ids may be sparse; size by the max live id + 1.
  PeerId max_id = 0;
  for (PeerId id : overlay.LivePeers()) max_id = std::max(max_id, id);
  state.resize(max_id + 1);

  std::priority_queue<std::pair<uint64_t, PeerId>,
                      std::vector<std::pair<uint64_t, PeerId>>,
                      std::greater<>>
      queue;
  state[root].reached = true;
  state[root].wave = 0;
  queue.emplace(0, root);
  uint64_t max_wave = 0;

  while (!queue.empty()) {
    const auto [wave, id] = queue.top();
    queue.pop();
    if (state[id].processed) continue;
    state[id].processed = true;
    stats.peers_visited += 1;
    max_wave = std::max(max_wave, wave);

    const auto& peer = overlay.GetPeer(id);
    // Merge the local skyline with everything received so far (the inbox
    // is folded into a skyline on arrival).
    TupleVec local_sky = peer.store.LocalSkyline();
    const TupleVec merged = MergeBands(local_sky, state[id].points, 1);

    // The local contribution: local skyline points that survive the merge.
    TupleVec contribution;
    for (const Tuple& t : local_sky) {
      const auto it = std::lower_bound(
          merged.begin(), merged.end(), t.id,
          [](const Tuple& m, uint64_t v) { return m.id < v; });
      if (it != merged.end() && it->id == t.id) contribution.push_back(t);
    }
    if (!contribution.empty()) {
      stats.messages += 1;  // answer delivery to the initiator
      stats.tuples_shipped += contribution.size();
      stats.bytes_on_wire += TupleFrameBytes(contribution);
      result.skyline = MergeBands(std::move(result.skyline), contribution, 1);
    }

    // Forward the surviving local skyline points ("the local skyline
    // points are forwarded to the peers responsible for neighboring
    // regions" — §2.2) together with the bounded most-dominating subset of
    // everything known, so pruning power cascades without shipping
    // skyline-sized payloads per edge (at d = 10 the merged set holds
    // thousands of tuples; the dominator subset carries its full zone-
    // pruning strength in O(1) tuples).
    const TupleVec dominators =
        SelectDominators(merged, SkylinePolicy::kMaxDominators);
    const TupleVec payload = MergeBands(contribution, dominators, 1);
    const uint64_t payload_bytes = TupleFrameBytes(payload);
    for (PeerId nb : peer.neighbors) {
      const auto& other = overlay.GetPeer(nb);
      if (!IsUpperNeighbor(peer.zone, other.zone)) continue;
      if (ZoneDominated(dominators, other.zone)) continue;  // pruned
      stats.messages += 1;
      stats.tuples_shipped += payload.size();
      stats.bytes_on_wire += payload_bytes;
      Incoming& in = state[nb];
      in.points = MergeBands(std::move(in.points), payload, 1);
      if (!in.reached) {
        in.reached = true;
        in.wave = wave + 1;
        queue.emplace(wave + 1, nb);
      }
    }
  }

  stats.latency_hops += max_wave;
  std::sort(result.skyline.begin(), result.skyline.end(), TupleIdLess());
  return result;
}

}  // namespace ripple
