#include "baselines/ssp.h"

#include <algorithm>

#include "geom/dominance.h"
#include "queries/skyline.h"
#include "store/local_algos.h"
#include "store/wire.h"
#include "wire/frame.h"

namespace ripple {

namespace {

/// A region (union of rectangles) is prunable when every rectangle is
/// fully dominated by some skyline point.
bool RegionDominated(const TupleVec& sky, const std::vector<Rect>& region) {
  if (region.empty()) return false;
  for (const Rect& r : region) {
    bool rect_dominated = false;
    for (const Tuple& s : sky) {
      if (DominatesRect(s.key, r)) {
        rect_dominated = true;
        break;
      }
    }
    if (!rect_dominated) return false;
  }
  return true;
}

}  // namespace

SspResult RunSspSkyline(const BatonOverlay& overlay, PeerId initiator) {
  SspResult result;
  QueryStats& stats = result.stats;

  // The query starts at the peer responsible for the region containing the
  // origin of the data space (Z-key 0).
  uint64_t route_hops = 0;
  const PeerId start = overlay.RouteToKey(initiator, 0, &route_hops);
  stats.latency_hops += route_hops;
  stats.messages += route_hops;
  stats.peers_visited += route_hops + 1;  // path peers plus the start peer
  stats.bytes_on_wire += route_hops * wire::kFrameHeaderSize;

  // The start peer's local skyline seeds the global set; its points (led
  // by the most dominating one) define the pruned search space. We prune
  // with the full seed skyline — a superset of most-dominating-point
  // pruning.
  TupleVec sky = overlay.GetPeer(start).store.LocalSkyline();

  std::vector<PeerId> pending;
  pending.reserve(overlay.NumPeers());
  for (PeerId id = 0; id < overlay.NumPeers(); ++id) {
    if (id != start) pending.push_back(id);
  }

  while (!pending.empty()) {
    // Prune peers whose entire region is dominated by the current skyline
    // (tested against the bounded min-sum subset — sound).
    const TupleVec dominators =
        SelectDominators(sky, SkylinePolicy::kMaxDominators);
    std::vector<PeerId> wave;
    for (PeerId id : pending) {
      if (!RegionDominated(dominators, overlay.RegionOf(id))) {
        wave.push_back(id);
      }
    }
    if (wave.empty()) break;
    ++result.waves;

    // Query the wave in parallel from the start peer; gather local
    // skylines. Wave latency is the longest forwarding path.
    uint64_t wave_latency = 0;
    for (PeerId id : wave) {
      uint64_t hops = 0;
      const PeerId arrived =
          overlay.RouteToKey(start, overlay.GetPeer(id).range_lo, &hops);
      (void)arrived;
      stats.messages += hops;       // query forwards along the path
      stats.peers_visited += hops;  // forwarding peers plus the target
      stats.bytes_on_wire += hops * wire::kFrameHeaderSize;
      wave_latency = std::max(wave_latency, hops);
      const TupleVec local_sky = overlay.GetPeer(id).store.LocalSkyline();
      if (!local_sky.empty()) {
        stats.messages += 1;  // reply to the querying peer
        stats.tuples_shipped += local_sky.size();
        stats.bytes_on_wire +=
            wire::kFrameHeaderSize + TupleVecWireSize(local_sky);
        sky = MergeBands(std::move(sky), local_sky, 1);
      }
    }
    stats.latency_hops += wave_latency;

    // Anything already queried leaves the pending set; peers pruned by the
    // enriched skyline will be dropped on the next iteration (pruning only
    // grows with the skyline, so the loop ends after this pass).
    std::vector<uint8_t> queried(overlay.NumPeers(), 0);
    for (PeerId id : wave) queried[id] = 1;
    std::vector<PeerId> still_pending;
    for (PeerId id : pending) {
      if (!queried[id]) still_pending.push_back(id);
    }
    pending = std::move(still_pending);
  }

  result.skyline = std::move(sky);
  return result;
}

}  // namespace ripple
