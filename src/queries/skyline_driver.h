#ifndef RIPPLE_QUERIES_SKYLINE_DRIVER_H_
#define RIPPLE_QUERIES_SKYLINE_DRIVER_H_

#include <vector>

#include "queries/seeded_run.h"
#include "queries/skyline.h"
#include "ripple/api.h"
#include "ripple/engine.h"

namespace ripple {

/// Seeded skyline initiation.
///
/// A skyline run started at an arbitrary peer forwards with an empty state
/// on its first hops — nothing is dominated yet, so nothing is pruned and
/// the fast mode degenerates towards a broadcast. Both distributed-skyline
/// baselines the paper compares against avoid this by construction: DSL
/// roots its hierarchy at the peer owning the domain origin and SSP starts
/// at the origin's region. We give RIPPLE the same standard opening: route
/// the query to the peer responsible for the domain's lower corner (whose
/// zone reaches into the most dominating area, so its local skyline prunes
/// aggressively) and initiate processing there. Routing hops are charged
/// to the query.
/// Generic over the engine, like SeededTopK: the request's `initiator` is
/// where the bootstrap routing starts; the run proper is initiated at the
/// corner owner. Fault/retry/deadline fields pass through to the engine.
template <typename Overlay, typename EngineT>
typename EngineT::Result SeededSkyline(
    const Overlay& overlay, const EngineT& engine,
    const QueryRequest<SkylinePolicy>& request) {
  const SkylineQuery& query = request.query;
  // Constrained queries aim at the constraint's lower corner (the spot DSL
  // roots its hierarchy at); unconstrained ones at the domain origin.
  const Point corner = query.constraint.has_value()
                           ? query.constraint->lo()
                           : overlay.domain().lo();
  uint64_t hops = 0;
  std::vector<PeerId> route_path;
  QueryRequest<SkylinePolicy> seeded = request;
  seeded.initiator =
      overlay.RouteFrom(request.initiator, corner, &hops,
                        engine.tracer() ? &route_path : nullptr);
  return RunSeeded(engine, seeded, hops, route_path, {});
}

}  // namespace ripple

#endif  // RIPPLE_QUERIES_SKYLINE_DRIVER_H_
