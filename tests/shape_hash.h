#ifndef RIPPLE_TESTS_SHAPE_HASH_H_
#define RIPPLE_TESTS_SHAPE_HASH_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"
#include "geom/rect.h"
#include "overlay/types.h"

namespace ripple {

/// A 64-bit fingerprint of an overlay's observable shape: peer ids, zone
/// corners, links, row order. Tests pin the value a fixed churn schedule
/// produces, so a change in allocation order, RNG draws or store row order
/// shows as a changed constant even when every structural check passes.
class ShapeHash {
 public:
  void Mix(uint64_t v) {
    h_ = (h_ ^ v) * 0x100000001b3ull;
    h_ ^= h_ >> 29;
  }
  void Mix(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    Mix(bits);
  }
  void Mix(const Rect& r) {
    Mix(static_cast<uint64_t>(r.dims()));
    for (int i = 0; i < r.dims(); ++i) {
      Mix(r.lo()[i]);
      Mix(r.hi()[i]);
    }
  }
  void Mix(const std::vector<uint64_t>& ids) {
    Mix(static_cast<uint64_t>(ids.size()));
    for (uint64_t id : ids) Mix(id);
  }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Departures seen by a churn schedule, by the split tree's two cases.
struct DepartureCounts {
  int sibling_merges = 0;  // the sibling leaf absorbed the departed zone
  int takeovers = 0;       // a pair (u, v) in the sibling subtree did
};

/// Runs `leave` (which removes one live peer of `overlay`) and counts the
/// departure: a take-over when some remaining peer now owns exactly the
/// departed zone, a sibling merge otherwise. Returns the leave's status.
template <typename Overlay, typename Leave>
Status CountDeparture(const Overlay& overlay, Leave&& leave,
                      DepartureCounts* counts) {
  const std::vector<PeerId> before = overlay.LivePeers();
  std::vector<Rect> zones;
  for (PeerId id : before) zones.push_back(overlay.GetPeer(id).zone);
  const Status status = leave();
  if (!status.ok()) return status;
  const std::vector<PeerId> after = overlay.LivePeers();
  size_t gone = 0;
  while (gone < after.size() && before[gone] == after[gone]) ++gone;
  for (PeerId id : after) {
    if (overlay.GetPeer(id).zone == zones[gone]) {
      ++counts->takeovers;
      return status;
    }
  }
  ++counts->sibling_merges;
  return status;
}

}  // namespace ripple

#endif  // RIPPLE_TESTS_SHAPE_HASH_H_
