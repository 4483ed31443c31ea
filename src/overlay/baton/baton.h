#ifndef RIPPLE_OVERLAY_BATON_BATON_H_
#define RIPPLE_OVERLAY_BATON_BATON_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "geom/zorder.h"
#include "overlay/types.h"
#include "store/local_store.h"

namespace ripple {

/// Construction options for a BATON overlay.
struct BatonOptions {
  int dims = 2;
  Rect domain;       // defaults to the unit cube
  int bits_per_dim = 0;  // 0: ZOrder default (62 / dims)
};

/// BATON (Jagadish et al., VLDB 2005): a balanced binary tree in which
/// *every* node — internal and leaf — is a peer. Peers own contiguous
/// ranges of a one-dimensional key space assigned by in-order traversal;
/// multi-dimensional tuples are mapped onto that space with a Z-curve,
/// exactly as SSP does (paper, Section 2.2).
///
/// Each peer links to its parent, children, in-order adjacent peers, and
/// left/right routing tables holding same-level peers at distances
/// 2^0, 2^1, ... — giving O(log n) routing.
///
/// The real protocol keeps the tree balanced under churn via rotations; we
/// construct the balanced tree directly at each measured network size
/// (which is the state the rotations guarantee), so growth sweeps rebuild
/// rather than mutate. Ranges are uniform slices of the key space.
class BatonOverlay {
 public:
  struct Peer {
    int level = 0;      // root is level 0
    int pos = 0;        // position within the level, 0-based
    uint64_t range_lo = 0;  // key range [range_lo, range_hi)
    uint64_t range_hi = 0;
    /// The Z-curve decomposition of the key range into maximal aligned
    /// rectangles, set wherever the range is.
    std::vector<Rect> region;
    PeerId parent = kInvalidPeer;
    PeerId left_child = kInvalidPeer;
    PeerId right_child = kInvalidPeer;
    PeerId adj_left = kInvalidPeer;   // in-order predecessor
    PeerId adj_right = kInvalidPeer;  // in-order successor
    std::vector<PeerId> left_table;   // same level, pos - 2^j
    std::vector<PeerId> right_table;  // same level, pos + 2^j
    LocalStore store;
  };

  /// Builds a BATON network of `num_peers` peers.
  BatonOverlay(size_t num_peers, const BatonOptions& options);

  BatonOverlay(const BatonOverlay&) = delete;
  BatonOverlay& operator=(const BatonOverlay&) = delete;
  BatonOverlay(BatonOverlay&&) = default;
  BatonOverlay& operator=(BatonOverlay&&) = default;

  int dims() const { return zorder_.dims(); }
  const Rect& domain() const { return zorder_.domain(); }
  const ZOrder& zorder() const { return zorder_; }
  size_t NumPeers() const { return peers_.size(); }

  const Peer& GetPeer(PeerId id) const;
  PeerId RandomPeer(Rng* rng) const;

  void InsertTuple(const Tuple& t);
  size_t TotalTuples() const;

  /// Re-balances key ranges to the quantiles of the given tuples' Z-keys —
  /// BATON's load-balancing (peers adjust ranges so data spreads evenly,
  /// which is what lets the origin-region peer of SSP cover the whole
  /// sparse area below the data). Stored tuples are redistributed; the
  /// in-order structure and all links stay as they are.
  void RebalanceToData(const TupleVec& tuples);

  /// The peer owning Z-key `key`.
  PeerId ResponsibleForKey(uint64_t key) const;
  /// The peer owning the Z-image of point `p`.
  PeerId ResponsiblePeer(const Point& p) const;

  /// BATON routing from `from` to the owner of `key`; every hop goes to a
  /// linked peer (routing tables / children / parent / adjacent).
  /// `path` (optional) receives the forwarding peers in order (destination
  /// excluded); completed routes are recorded under "baton.route.*" in
  /// obs::Registry::Global() when globally enabled.
  PeerId RouteToKey(PeerId from, uint64_t key, uint64_t* hops,
                    std::vector<PeerId>* path) const;
  PeerId RouteToKey(PeerId from, uint64_t key, uint64_t* hops) const {
    return RouteToKey(from, key, hops, nullptr);
  }

  /// The multi-dimensional region a peer is responsible for: the Z-curve
  /// decomposition of its key range into maximal aligned rectangles.
  const std::vector<Rect>& RegionOf(PeerId id) const {
    return GetPeer(id).region;
  }

  /// Structural self-check: ranges partition the key space in in-order
  /// sequence, links are symmetric, routing tables match positions.
  Status Validate() const;

 private:
  /// 1-based heap index of (level, pos) is 2^level + pos; PeerId is that
  /// minus one, so peers 0..n-1 fill the tree top-down, left-to-right.
  static PeerId HeapId(int level, int pos) {
    return static_cast<PeerId>((1u << level) + pos - 1);
  }
  bool Exists(int level, int pos) const {
    return pos >= 0 && pos < (1 << level) &&
           HeapId(level, pos) < peers_.size();
  }

  void AssignRangesInOrder();
  /// Gives `p` the key range [lo, hi) and that range's region.
  void SetRange(Peer* p, uint64_t lo, uint64_t hi) const;

  ZOrder zorder_;
  std::vector<Peer> peers_;
  /// Peers sorted by range_lo for O(log n) ownership lookups in the
  /// simulator (a real peer routes instead).
  std::vector<PeerId> inorder_;
};

}  // namespace ripple

#endif  // RIPPLE_OVERLAY_BATON_BATON_H_
