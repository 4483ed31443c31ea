#ifndef RIPPLE_OVERLAY_MIDAS_MIDAS_H_
#define RIPPLE_OVERLAY_MIDAS_MIDAS_H_

#include <algorithm>
#include <vector>

#include "common/bitstring.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "geom/rect.h"
#include "geom/wire.h"
#include "overlay/split_tree.h"
#include "overlay/types.h"
#include "store/local_store.h"

namespace ripple {

/// How a zone is split when a new peer joins. The split dimension always
/// alternates with depth (depth mod dims), which the §5.2 border patterns
/// rely on; the rule selects the split position.
enum class MidasSplitRule {
  /// Halve the zone geometrically. Data-independent; used by the latency
  /// lemma analyses and as the default.
  kMidpoint,
  /// Split at the median of the stored tuples along the split dimension
  /// (falling back to the midpoint for zones with fewer than two tuples).
  /// This is the load-balancing behavior of a data-bearing deployment:
  /// peers concentrate where tuples are, which is what keeps the number
  /// of query-relevant peers near the paper's d * n^(1/d) estimate.
  kDataMedian,
};

/// Construction options for a MIDAS overlay.
struct MidasOptions {
  int dims = 2;
  Rect domain;  // defaults to the unit cube when left default-constructed
  /// Enables the Section 5.2 structural optimization: link targets and
  /// back-link reassignment prefer peers whose ids match a border pattern.
  bool border_pattern_links = false;
  MidasSplitRule split_rule = MidasSplitRule::kMidpoint;
  uint64_t seed = 1;
};

/// The MIDAS overlay (Tsatsanifos et al., GeoInformatica 2013; paper §2.3):
/// peers are the leaves of a virtual k-d tree over the domain. A peer at
/// depth D keeps one link per sibling subtree rooted at depths 1..D; the
/// RIPPLE region of link i is the rectangle of that sibling subtree, so a
/// peer's link regions plus its own zone partition the entire domain.
///
/// The tree is a SplitTree. Zones split along dimension (depth mod dims),
/// the alternating structure §5.2's border patterns rely on, at the
/// position MidasSplitRule picks.
///
/// This is a simulation-grade implementation: peers live in one process and
/// the virtual tree is materialized, but all query-time decisions use only
/// per-peer state (zone, links with regions, local tuples). Join and leave
/// perform the O(depth) link transfers of the real protocol.
class MidasOverlay {
 public:
  /// RIPPLE areas over MIDAS are k-d subtree rectangles.
  using Area = Rect;
  using Link = RectLink;

  struct Peer {
    BitString id;  // leaf id in the virtual k-d tree
    Rect zone;
    std::vector<Link> links;  // links[i] -> sibling subtree at depth i+1
    LocalStore store;

    int depth() const { return id.size(); }
  };

  explicit MidasOverlay(const MidasOptions& options);

  // Not copyable (owns bulky per-peer state); movable.
  MidasOverlay(const MidasOverlay&) = delete;
  MidasOverlay& operator=(const MidasOverlay&) = delete;
  MidasOverlay(MidasOverlay&&) = default;
  MidasOverlay& operator=(MidasOverlay&&) = default;

  int dims() const { return options_.dims; }
  const Rect& domain() const { return options_.domain; }
  Area FullArea() const { return options_.domain; }

  /// Number of live peers.
  size_t NumPeers() const { return tree_.NumPeers(); }

  /// Maximum live-peer depth == maximum number of links of any peer — the
  /// paper's Delta, upper-bounding the diameter (Lemma 1).
  int MaxDepth() const {
    int best = 0;
    for (PeerId id : LivePeers()) best = std::max(best, peers_[id].depth());
    return best;
  }

  const Peer& GetPeer(PeerId id) const {
    RIPPLE_DCHECK(tree_.IsLive(id));
    return peers_[id];
  }

  /// Ids of all live peers, ascending.
  std::vector<PeerId> LivePeers() const { return tree_.LivePeers(); }

  /// A uniformly random live peer.
  PeerId RandomPeer(Rng* rng) const { return tree_.RandomPeer(rng); }

  /// Adds a peer: a uniformly random live peer is contacted and splits its
  /// zone — the MIDAS join protocol. Returns the new peer's id.
  PeerId Join() { return JoinSplitting(RandomPeer(&rng_)); }

  /// Adds a peer by splitting the zone responsible for `key`. Tests and
  /// benches use explicit keys to construct specific tree shapes (e.g.
  /// perfect trees for verifying Lemmas 1-3 exactly).
  PeerId JoinAt(const Point& key) {
    return JoinSplitting(ResponsiblePeer(key));
  }

  /// Adds a peer by splitting `split_peer`'s zone.
  PeerId JoinSplitting(PeerId split_peer);

  /// Removes a peer; its zone merges back into the tree and its tuples move
  /// to the absorbing peer. Fails when it is the last live peer.
  Status Leave(PeerId id);

  /// Removes a uniformly random live peer (decreasing-stage churn driver).
  Status LeaveRandom(Rng* rng) { return Leave(tree_.RandomDeparting(rng)); }

  /// Routes to the peer responsible for `p` and stores the tuple there.
  void InsertTuple(const Tuple& t) {
    peers_[ResponsiblePeer(t.key)].store.Add(t);
  }

  /// The peer responsible for point `p` (zone containment, half-open).
  PeerId ResponsiblePeer(const Point& p) const {
    RIPPLE_DCHECK(options_.domain.Contains(p));
    return tree_.Owner(p);
  }

  /// Peer-level greedy routing from `from` towards the peer responsible for
  /// `p`, following link regions; `hops` (optional) receives the hop count.
  /// This is how a real MIDAS node performs lookups in O(depth).
  /// `path` (optional) receives the forwarding peers in order — `from`
  /// first, the destination excluded — so observability layers can
  /// attribute per-hop cost. Completed routes are recorded under
  /// "midas.route.*" in obs::Registry::Global() when globally enabled.
  PeerId RouteFrom(PeerId from, const Point& p, uint64_t* hops,
                   std::vector<PeerId>* path) const;
  PeerId RouteFrom(PeerId from, const Point& p, uint64_t* hops) const {
    return RouteFrom(from, p, hops, nullptr);
  }

  /// Area algebra for the RIPPLE engine: intersection with empty/degenerate
  /// results reported as false (subtree rects either nest or have disjoint
  /// interiors, so touching faces mean "no shared peers"). The cut is
  /// written into `out` in place.
  static bool IntersectArea(const Area& a, const Area& b, Area* out) {
    return Rect::CutInto(a, b, out);
  }

  /// Area wire codec (docs/WIRE.md): a MIDAS area is a plain rectangle.
  void EncodeArea(const Area& area, wire::Buffer* buf) const {
    EncodeRect(area, buf);
  }
  bool DecodeArea(wire::Reader* r, Area* out) const {
    return DecodeRect(r, out);
  }
  size_t AreaWireSize(const Area& area) const { return RectWireSize(area); }

  /// Rectangle of the virtual-tree node identified by `prefix` (split
  /// positions are data-dependent under kDataMedian, so it is read from
  /// the materialized tree).
  Rect SubtreeRect(const BitString& prefix) const {
    return tree_.node(NodeOfPrefix(prefix)).rect;
  }

  /// Total tuples stored across all live peers.
  size_t TotalTuples() const { return tree_.TotalTuples(peers_); }

  /// Internal consistency check used by tests: verifies the virtual tree,
  /// zone partition, link regions and back-link registry.
  Status Validate() const;

 private:
  struct BackRef {
    PeerId from = kInvalidPeer;
    int link_index = 0;
    friend bool operator==(const BackRef& a, const BackRef& b) {
      return a.from == b.from && a.link_index == b.link_index;
    }
  };

  /// Sibling-leaf merge: the plan's absorber takes over the pair's zone,
  /// the vacated peer's tuples, and the back-links that pointed at it.
  void MergeIntoSibling(const SplitTree::Departure& plan);

  /// Retargets every back-link of `old_target` to `new_target`.
  void ReassignBackLinks(PeerId old_target, PeerId new_target);
  void RemoveBackRef(PeerId target, const BackRef& ref);

  /// Applies the §5.2 rule after a split of `stay` (kept lower half) and
  /// `fresh` (new upper half): when exactly one of the two matches a border
  /// pattern, every back-link moves to the matching peer.
  void ApplyPatternRuleAfterSplit(PeerId stay, PeerId fresh);

  /// §5.2's link establishment rule: retargets each of `peer`'s links to a
  /// border-pattern peer within its sibling subtree when one exists (and
  /// the current target does not match). Bounded tree search per link.
  void PreferPatternTargets(PeerId peer);

  /// A leaf under `node` whose id matches a border pattern, or
  /// kInvalidPeer. `prefix` is the node's id; `budget` caps the number of
  /// tree nodes examined.
  PeerId FindPatternLeaf(int node, const BitString& prefix,
                         int* budget) const;

  /// The tree node materializing `prefix` (which must exist).
  int NodeOfPrefix(const BitString& prefix) const;

  MidasOptions options_;
  Rng rng_;
  SplitTree tree_;
  std::vector<Peer> peers_;  // indexed by peer id; live iff tree_ says so
  std::vector<std::vector<BackRef>> backlinks_;  // indexed by target peer
};

}  // namespace ripple

#endif  // RIPPLE_OVERLAY_MIDAS_MIDAS_H_
