#ifndef RIPPLE_QUERIES_SEEDED_RUN_H_
#define RIPPLE_QUERIES_SEEDED_RUN_H_

#include <vector>

#include "obs/trace.h"
#include "overlay/types.h"
#include "ripple/api.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace ripple {

/// The shared tail of the seeded drivers (SeededTopK, SeededSkyline):
/// runs `seeded` on `engine` after a bootstrap of `hops` routing forwards
/// and the seed walk over `walk` (whose first peer is the route's
/// destination), and charges that bootstrap to the result. Every
/// bootstrap forward carries the query, one query-only frame each; each
/// forwarding or walked peer handles it; routing then walking is
/// sequential, so it adds to latency and simulated completion time.
///
/// With a tracer (the only instrument the drivers read from an engine),
/// the bootstrap becomes spans recorded under `seeded.trace_id` before
/// the engine's: one chained kRoute span per forwarding peer of `route`
/// (empty when no tracer collected it), then one kWalk span per walked
/// peer, one hop each. The engine counts time from zero, so its spans
/// are shifted by the bootstrap latency onto the same timeline.
template <typename EngineT, typename Request>
typename EngineT::Result RunSeeded(const EngineT& engine,
                                   const Request& seeded, uint64_t hops,
                                   const std::vector<PeerId>& route,
                                   const std::vector<PeerId>& walk) {
  const uint64_t forwards = hops + (walk.empty() ? 0 : walk.size() - 1);
  obs::Tracer* tracer = engine.tracer();
  double saved_offset = 0.0;
  if (tracer != nullptr) {
    tracer->set_trace_id(seeded.trace_id);
    uint32_t last = obs::kNoSpan;
    double t = 0.0;
    for (PeerId p : route) {
      last = tracer->StartSpan(p, last, obs::SpanKind::kRoute, /*r=*/0, t);
      tracer->span(last).links_forwarded = 1;
      tracer->EndSpan(last, t += 1.0);
    }
    t = static_cast<double>(hops);
    for (PeerId p : walk) {
      last = tracer->StartSpan(p, last, obs::SpanKind::kWalk, /*r=*/0, t);
      tracer->EndSpan(last, t += 1.0);
    }
    saved_offset = tracer->time_offset();
    tracer->set_time_offset(saved_offset + static_cast<double>(forwards));
  }
  auto result = engine.Run(seeded);
  if (tracer != nullptr) tracer->set_time_offset(saved_offset);
  result.stats.latency_hops += forwards;
  result.stats.messages += forwards;
  result.stats.peers_visited += hops + walk.size();
  // A forward's frame: a header plus the query, encoded once into scratch
  // every seeded run on the thread reuses.
  thread_local wire::Buffer query;
  query.Clear();
  engine.policy().EncodeQuery(seeded.query, &query);
  result.stats.bytes_on_wire +=
      forwards * (wire::kFrameHeaderSize + query.size());
  // Async runs report simulated wall-clock; the sequential bootstrap
  // happens before their clock starts.
  if (result.completion_time > 0) {
    result.completion_time += static_cast<double>(forwards);
  }
  return result;
}

}  // namespace ripple

#endif  // RIPPLE_QUERIES_SEEDED_RUN_H_
