#ifndef RIPPLE_OVERLAY_CAN_CAN_H_
#define RIPPLE_OVERLAY_CAN_CAN_H_

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "geom/rect.h"
#include "overlay/split_tree.h"
#include "overlay/types.h"
#include "store/local_store.h"

namespace ripple {

/// Construction options for a CAN overlay.
struct CanOptions {
  int dims = 2;
  Rect domain;  // defaults to the unit cube
  uint64_t seed = 1;
};

/// A Content-Addressable Network (Ratnasamy et al., SIGCOMM 2001): the
/// d-dimensional domain is partitioned into one zone per peer; two peers
/// are neighbors when their zones abut along exactly one dimension and
/// overlap along the other d-1 (paper, Sections 2.2 and 3.1). Routing is
/// greedy towards the target point through neighbor zones.
///
/// CAN hosts the DSL skyline baseline and the adapted streaming
/// diversification baseline. Zones are maintained with midpoint splits in
/// round-robin dimension order, so the partition forms a SplitTree used
/// for O(log n) ownership lookups, peer slots and departure take-overs.
class CanOverlay {
 public:
  struct Peer {
    Rect zone;
    int depth = 0;  // splits from the root, drives the next split dimension
    std::vector<PeerId> neighbors;
    LocalStore store;
  };

  explicit CanOverlay(const CanOptions& options);

  CanOverlay(const CanOverlay&) = delete;
  CanOverlay& operator=(const CanOverlay&) = delete;
  CanOverlay(CanOverlay&&) = default;
  CanOverlay& operator=(CanOverlay&&) = default;

  int dims() const { return options_.dims; }
  const Rect& domain() const { return options_.domain; }
  size_t NumPeers() const { return tree_.NumPeers(); }

  const Peer& GetPeer(PeerId id) const {
    RIPPLE_DCHECK(tree_.IsLive(id));
    return peers_[id];
  }
  std::vector<PeerId> LivePeers() const { return tree_.LivePeers(); }
  PeerId RandomPeer(Rng* rng) const { return tree_.RandomPeer(rng); }

  /// Adds a peer: a random point is drawn and the responsible zone is split
  /// in half; the newcomer takes the half containing the point.
  PeerId Join();

  /// Removes a peer; a take-over peer merges the vacated zone. Fails for
  /// the last live peer.
  Status Leave(PeerId id);
  Status LeaveRandom(Rng* rng) { return Leave(tree_.RandomDeparting(rng)); }

  void InsertTuple(const Tuple& t) {
    peers_[ResponsiblePeer(t.key)].store.Add(t);
  }
  PeerId ResponsiblePeer(const Point& p) const { return tree_.Owner(p); }
  size_t TotalTuples() const { return tree_.TotalTuples(peers_); }

  /// Greedy CAN routing from `from` to the peer responsible for `p`;
  /// `hops` (optional) receives the number of forwards. `path` (optional)
  /// receives the forwarding peers in order (destination excluded);
  /// completed routes are recorded under "can.route.*" in
  /// obs::Registry::Global() when globally enabled.
  PeerId RouteFrom(PeerId from, const Point& p, uint64_t* hops,
                   std::vector<PeerId>* path) const;
  PeerId RouteFrom(PeerId from, const Point& p, uint64_t* hops) const {
    return RouteFrom(from, p, hops, nullptr);
  }

  /// Breadth-first flood over the neighbor graph starting at `from` —
  /// the spanning broadcast the naive/baseline methods rely on. Calls
  /// `visit(peer_id, bfs_depth)` for every live peer exactly once (the
  /// initiator at depth 0) and returns the maximum depth (flood latency).
  template <typename Visitor>
  uint64_t Flood(PeerId from, Visitor&& visit) const;

  /// Structural self-check for tests: zone partition, symmetric and exact
  /// neighbor sets, tuple placement.
  Status Validate() const;

 private:
  /// True when zones a and b abut along one dimension and overlap with
  /// positive extent along all others.
  bool AreNeighbors(const Rect& a, const Rect& b) const;
  /// Recomputes `peer`'s adjacency against `candidates`, updating both
  /// sides' neighbor lists.
  void RefreshNeighbors(PeerId peer, const std::vector<PeerId>& candidates);
  void Unlink(PeerId a, PeerId b);
  /// Unlinks `id` from every neighbor; returns its former neighbor list.
  std::vector<PeerId> Detach(PeerId id);
  /// Sibling-leaf merge: the plan's absorber takes over the pair's zone,
  /// the vacated peer's tuples and its adjacency.
  void MergeIntoSibling(const SplitTree::Departure& plan);

  CanOptions options_;
  Rng rng_;
  SplitTree tree_;
  std::vector<Peer> peers_;  // indexed by peer id; live iff tree_ says so
};

// ---------------------------------------------------------------------------
// Implementation details only below here.
// ---------------------------------------------------------------------------

template <typename Visitor>
uint64_t CanOverlay::Flood(PeerId from, Visitor&& visit) const {
  std::vector<uint8_t> seen(peers_.size(), 0);
  std::vector<std::pair<PeerId, uint64_t>> frontier = {{from, 0}};
  seen[from] = 1;
  uint64_t max_depth = 0;
  size_t head = 0;
  while (head < frontier.size()) {
    const auto [id, depth] = frontier[head++];
    visit(id, depth);
    max_depth = std::max(max_depth, depth);
    for (PeerId nb : peers_[id].neighbors) {
      if (!seen[nb]) {
        seen[nb] = 1;
        frontier.emplace_back(nb, depth + 1);
      }
    }
  }
  return max_depth;
}

}  // namespace ripple

#endif  // RIPPLE_OVERLAY_CAN_CAN_H_
