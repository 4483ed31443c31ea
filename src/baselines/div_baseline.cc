#include "baselines/div_baseline.h"

#include "queries/diversify.h"
#include "store/wire.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace ripple {

std::optional<Tuple> CanFloodDivService::FindBest(const DivQuery& query,
                                                  double tau,
                                                  QueryStats* stats,
                                                  net::Coverage*) {
  std::optional<Tuple> best;
  double best_phi = tau;
  uint64_t flood_messages = 0;
  uint64_t replies = 0;
  // Every flood forward carries the query (encoded once, into scratch the
  // thread reuses); every reply carries one tuple.
  thread_local wire::Buffer encoded;
  encoded.Clear();
  DivPolicy{}.EncodeQuery(query, &encoded);
  const uint64_t forward_bytes = wire::kFrameHeaderSize + encoded.size();
  uint64_t reply_bytes = 0;
  const uint64_t depth = overlay_->Flood(
      initiator_, [&](PeerId id, uint64_t) {
        stats->peers_visited += 1;
        if (id != initiator_) ++flood_messages;  // one forward reaches it
        // The peer streams its local tuples through phi and replies with
        // its best admissible candidate.
        const auto& store = overlay_->GetPeer(id).store;
        double phi = 0.0;
        auto cost = [&](const Point& p) { return query.Phi(p); };
        auto rect_lower = [&](const Rect& r) {
          return query.PhiLowerBound(r);
        };
        auto admit = [&](const Tuple& t) { return !query.IsExcluded(t.id); };
        const std::optional<Tuple> local =
            store.ArgMin(cost, rect_lower, admit, &phi);
        if (!local.has_value()) return;
        ++replies;
        stats->tuples_shipped += 1;
        reply_bytes += wire::kFrameHeaderSize + TupleWireSize(*local);
        if (phi < best_phi ||
            (best.has_value() && phi == best_phi && local->id < best->id)) {
          best_phi = phi;
          best = *local;
        }
      });
  stats->messages += flood_messages + replies;
  stats->bytes_on_wire += flood_messages * forward_bytes + reply_bytes;
  stats->latency_hops += depth;
  return best;
}

}  // namespace ripple
