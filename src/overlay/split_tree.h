#ifndef RIPPLE_OVERLAY_SPLIT_TREE_H_
#define RIPPLE_OVERLAY_SPLIT_TREE_H_

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "geom/rect.h"
#include "overlay/types.h"
#include "store/flat_store.h"

namespace ripple {

/// The binary split tree of the zone overlays (MIDAS's virtual k-d tree,
/// §2.3, and CAN's midpoint splits): each leaf is one peer's zone, and the
/// leaves partition the domain under half-open ownership.
///
/// The tree owns the nodes, the peer-id slots and the peer -> leaf map; a
/// peer is live exactly when it owns a leaf. Freed node indices and peer
/// ids are reused last-freed-first. The overlays keep per-peer state in
/// vectors indexed by the same ids, and their own rules for where a zone
/// splits and which peer takes which half.
class SplitTree {
 public:
  struct Node {
    int parent = -1;
    int left = -1;  // children; -1 for a leaf
    int right = -1;
    Rect rect;
    PeerId leaf_peer = kInvalidPeer;  // valid iff leaf
    bool IsLeaf() const { return left < 0; }
  };

  /// How a departure reshapes the tree: the leaf pair under `pair`
  /// collapses into `absorber`. When the leaving peer's sibling is a leaf,
  /// it absorbs and `vacated == leaving`. Otherwise (a take-over) a pair
  /// (u, v) in the sibling subtree collapses into u, and v moves into the
  /// leaving peer's leaf.
  struct Departure {
    PeerId leaving = kInvalidPeer;
    PeerId absorber = kInvalidPeer;
    PeerId vacated = kInvalidPeer;
    int pair = -1;
    bool takeover() const { return vacated != leaving; }
  };

  static constexpr int kRoot = 0;

  /// One leaf over `domain`, owned by peer 0.
  explicit SplitTree(const Rect& domain);

  const Rect& domain() const { return nodes_[kRoot].rect; }
  size_t NumPeers() const { return live_; }
  bool IsLive(PeerId id) const {
    return id < leaf_of_.size() && leaf_of_[id] >= 0;
  }
  const Node& node(int index) const { return nodes_[index]; }
  /// The rect of live peer `id`'s leaf.
  const Rect& Zone(PeerId id) const { return nodes_[leaf_of_[id]].rect; }

  /// The peer whose zone holds `p`: at each node, the left child when its
  /// rect holds `p` half-open, else the right one.
  PeerId Owner(const Point& p) const {
    int node = kRoot;
    while (!nodes_[node].IsLeaf()) {
      const Node& n = nodes_[node];
      node = nodes_[n.left].rect.ContainsHalfOpen(p, domain()) ? n.left
                                                               : n.right;
    }
    return nodes_[node].leaf_peer;
  }

  /// Ids of all live peers, ascending.
  std::vector<PeerId> LivePeers() const;
  /// A uniformly random live peer, by rejection over every id slot.
  PeerId RandomPeer(Rng* rng) const;
  /// RandomPeer, except that with one peer left it returns that peer
  /// without a draw (and its departure then fails).
  PeerId RandomDeparting(Rng* rng) const {
    return live_ > 1 ? RandomPeer(rng) : nodes_[kRoot].leaf_peer;
  }

  /// Splits `owner`'s leaf at `value` along `dim`; a fresh peer id takes
  /// the lower half when `fresh_takes_lower`, else the upper. Allocates
  /// the id, then the left and right nodes. Returns the fresh id.
  PeerId Split(PeerId owner, int dim, double value, bool fresh_takes_lower);

  /// The plan for `id` leaving: NotFound for a peer that is not live,
  /// FailedPrecondition for the last one.
  Status PlanDeparture(PeerId id, Departure* out) const;
  /// Applies `plan` and frees the leaving peer's id.
  void CommitDeparture(const Departure& plan);

  /// The rows held by the live peers of a per-peer vector.
  template <typename Peer>
  size_t TotalTuples(const std::vector<Peer>& peers) const {
    size_t total = 0;
    for (PeerId id : LivePeers()) total += peers[id].store.size();
    return total;
  }

  /// Structural check over the overlay's per-peer vector (each peer with a
  /// `zone` and a `store`): every live peer's leaf names it back, has its
  /// zone as rect and holds its rows, and the zones fill the domain.
  template <typename Peer>
  Status Validate(const std::vector<Peer>& peers) const {
    const std::vector<PeerId> live = LivePeers();
    if (live.size() != live_) return Status::Internal("live count mismatch");
    double volume = 0.0;
    for (PeerId id : live) {
      volume += peers[id].zone.Volume();
      RIPPLE_RETURN_IF_ERROR(
          CheckLeaf(id, peers[id].zone, peers[id].store.flat()));
    }
    if (std::abs(volume - domain().Volume()) > 1e-9 * domain().Volume()) {
      return Status::Internal("zones do not partition the domain");
    }
    return Status::OK();
  }

 private:
  Status CheckLeaf(PeerId id, const Rect& zone,
                   const store::FlatStore& rows) const;

  std::vector<Node> nodes_;
  std::vector<int> free_nodes_;
  std::vector<int> leaf_of_;  // leaf node of each peer id; -1 when free
  std::vector<PeerId> free_peers_;
  size_t live_ = 1;
};

/// `domain`, or the unit cube when it is default-constructed. Checks
/// 1 <= dims <= kMaxDims and that the result has `dims` dimensions.
Rect ZoneDomain(int dims, const Rect& domain);

/// Slot `id` of a per-peer vector, readied for a peer fresh from
/// SplitTree::Split: appended for a new id, reset for a reused one.
template <typename T>
T& ResetPeerSlot(std::vector<T>* slots, PeerId id) {
  if (id == slots->size()) return slots->emplace_back();
  (*slots)[id] = T{};
  return (*slots)[id];
}

}  // namespace ripple

#endif  // RIPPLE_OVERLAY_SPLIT_TREE_H_
