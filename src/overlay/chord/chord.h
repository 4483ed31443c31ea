#ifndef RIPPLE_OVERLAY_CHORD_CHORD_H_
#define RIPPLE_OVERLAY_CHORD_CHORD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "geom/zorder.h"
#include "overlay/types.h"
#include "store/local_store.h"
#include "wire/buffer.h"

namespace ripple {

/// A set of arcs on the Chord ring: disjoint, sorted, non-wrapping key
/// segments [lo, hi). This is the RIPPLE Area type for Chord — the paper's
/// Section 3.1 defines a Chord neighbor's region as the arc from the start
/// of that neighbor's zone to the start of the next neighbor's zone.
///
/// Carries the overlay's Z-order mapping so query policies can evaluate
/// multi-dimensional bounds over an arc by decomposing it into rectangles.
struct ChordArea {
  const ZOrder* zorder = nullptr;  // not owned
  std::vector<std::pair<uint64_t, uint64_t>> segments;

  bool empty() const { return segments.empty(); }
  uint64_t TotalKeys() const {
    uint64_t n = 0;
    for (const auto& [lo, hi] : segments) n += hi - lo;
    return n;
  }
  bool ContainsKey(uint64_t key) const {
    for (const auto& [lo, hi] : segments) {
      if (key >= lo && key < hi) return true;
    }
    return false;
  }
};

/// Decomposes every arc segment into maximal aligned Z-cells and invokes
/// `fn` on each resulting rectangle (query-policy bound evaluation).
template <typename F>
void ForEachRect(const ChordArea& area, F&& fn) {
  for (const auto& [lo, hi] : area.segments) {
    for (const Rect& r : area.zorder->DecomposeInterval(lo, hi - 1)) {
      fn(r);
    }
  }
}

/// Construction options for a Chord overlay.
struct ChordOptions {
  int dims = 2;
  Rect domain;  // defaults to the unit cube
  int bits_per_dim = 0;
  uint64_t seed = 1;
};

/// Chord (Stoica et al.): peers sit on a key ring at random positions; a
/// peer owns the arc from its key to its successor's key, and keeps finger
/// links to the owners of key + 2^i for every i. Multi-dimensional tuples
/// are mapped to the ring with a Z-curve.
///
/// This overlay exists to demonstrate that generic RIPPLE runs unchanged on
/// a one-dimensionalized DHT: link regions are arcs (the paper's Chord
/// region definition) and policies evaluate bounds via arc-to-rectangle
/// decomposition. Built directly at a given size (ring join/leave is
/// orthogonal to query processing and omitted).
class ChordOverlay {
 public:
  using Area = ChordArea;

  struct Link {
    PeerId target = kInvalidPeer;
    ChordArea region;
  };

  struct Peer {
    uint64_t key = 0;       // ring position; owns [key, successor.key)
    uint64_t zone_end = 0;  // successor's key (wraps past the ring end)
    std::vector<Link> links;
    LocalStore store;
  };

  ChordOverlay(size_t num_peers, const ChordOptions& options);

  ChordOverlay(const ChordOverlay&) = delete;
  ChordOverlay& operator=(const ChordOverlay&) = delete;
  ChordOverlay(ChordOverlay&&) = default;
  ChordOverlay& operator=(ChordOverlay&&) = default;

  int dims() const { return zorder_.dims(); }
  const ZOrder& zorder() const { return zorder_; }
  size_t NumPeers() const { return peers_.size(); }

  const Peer& GetPeer(PeerId id) const;
  PeerId RandomPeer(Rng* rng) const;

  void InsertTuple(const Tuple& t);
  size_t TotalTuples() const;
  PeerId ResponsibleForKey(uint64_t key) const;
  PeerId ResponsiblePeer(const Point& p) const;

  /// Greedy clockwise finger routing; `hops` receives the hop count.
  /// `path` (optional) receives the forwarding peers in order (destination
  /// excluded); completed routes are recorded under "chord.route.*" in
  /// obs::Registry::Global() when globally enabled.
  PeerId RouteToKey(PeerId from, uint64_t key, uint64_t* hops,
                    std::vector<PeerId>* path) const;
  PeerId RouteToKey(PeerId from, uint64_t key, uint64_t* hops) const {
    return RouteToKey(from, key, hops, nullptr);
  }

  /// The whole ring (every peer's own zone is excluded from its link
  /// regions, so the engine's initial restriction is simply everything).
  Area FullArea() const;

  /// Arc-set intersection; false when empty.
  static bool IntersectArea(const Area& a, const Area& b, Area* out);

  /// Area wire codec (docs/WIRE.md): [varint count] then per segment
  /// [varint lo][varint (hi - lo)]. The zorder pointer never travels;
  /// DecodeArea re-binds the decoded area to this overlay's mapping and
  /// rejects segments that leave the ring or are empty.
  void EncodeArea(const Area& area, wire::Buffer* buf) const;
  bool DecodeArea(wire::Reader* r, Area* out) const;
  /// The bytes EncodeArea appends for `area`.
  size_t AreaWireSize(const Area& area) const;

  /// Structural self-check: zones partition the ring; per peer, link
  /// regions partition the ring minus the peer's own zone.
  Status Validate() const;

 private:
  uint64_t RingSize() const { return zorder_.key_space_size(); }
  /// Splits a possibly wrapping arc [lo, hi) into non-wrapping segments.
  std::vector<std::pair<uint64_t, uint64_t>> SplitArc(uint64_t lo,
                                                      uint64_t hi) const;

  ZOrder zorder_;
  std::vector<Peer> peers_;     // sorted by key
};

}  // namespace ripple

#endif  // RIPPLE_OVERLAY_CHORD_CHORD_H_
