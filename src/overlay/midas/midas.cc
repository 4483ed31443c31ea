#include "overlay/midas/midas.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "overlay/midas/patterns.h"

namespace ripple {

MidasOverlay::MidasOverlay(const MidasOptions& options)
    : options_(options), rng_(options.seed) {
  RIPPLE_CHECK(options_.dims >= 1 && options_.dims <= kMaxDims);
  if (options_.domain.dims() == 0) {
    options_.domain = Rect::Unit(options_.dims);
  }
  RIPPLE_CHECK(options_.domain.dims() == options_.dims);
  // Bootstrap: a single peer owning the whole domain (the tree root).
  const PeerId first = AllocatePeer();
  Peer& p = peers_[first];
  p.id = BitString();
  p.zone = options_.domain;
  p.alive = true;
  tree_.push_back(TreeNode{});
  tree_[root_].rect = options_.domain;
  tree_[root_].leaf_peer = first;
  leaf_node_of_peer_[first] = root_;
  alive_count_ = 1;
}

MidasOverlay::Peer& MidasOverlay::MutablePeer(PeerId id) {
  RIPPLE_DCHECK(id < peers_.size() && peers_[id].alive);
  return peers_[id];
}

const MidasOverlay::Peer& MidasOverlay::GetPeer(PeerId id) const {
  RIPPLE_DCHECK(id < peers_.size() && peers_[id].alive);
  return peers_[id];
}

PeerId MidasOverlay::AllocatePeer() {
  if (!free_peers_.empty()) {
    const PeerId id = free_peers_.back();
    free_peers_.pop_back();
    peers_[id] = Peer{};
    backlinks_[id].clear();
    leaf_node_of_peer_[id] = -1;
    return id;
  }
  const PeerId id = static_cast<PeerId>(peers_.size());
  peers_.emplace_back();
  backlinks_.emplace_back();
  leaf_node_of_peer_.push_back(-1);
  return id;
}

int MidasOverlay::TreeNodeOfLeaf(PeerId id) const {
  return leaf_node_of_peer_[id];
}

int MidasOverlay::MaxDepth() const {
  int best = 0;
  for (const Peer& p : peers_) {
    if (p.alive) best = std::max(best, p.depth());
  }
  return best;
}

std::vector<PeerId> MidasOverlay::LivePeers() const {
  std::vector<PeerId> out;
  out.reserve(alive_count_);
  for (PeerId i = 0; i < peers_.size(); ++i) {
    if (peers_[i].alive) out.push_back(i);
  }
  return out;
}

PeerId MidasOverlay::RandomPeer(Rng* rng) const {
  RIPPLE_CHECK(alive_count_ > 0);
  for (;;) {
    const PeerId id =
        static_cast<PeerId>(rng->UniformU64(peers_.size()));
    if (peers_[id].alive) return id;
  }
}

Rect MidasOverlay::SubtreeRect(const BitString& prefix) const {
  // Split positions are data-dependent under kDataMedian, so rects come
  // from the materialized virtual tree: descend following the id bits.
  int node = root_;
  for (int t = 0; t < prefix.size(); ++t) {
    RIPPLE_CHECK(!tree_[node].IsLeaf() &&
                 "SubtreeRect: prefix deeper than the virtual tree");
    node = prefix.bit(t) ? tree_[node].right : tree_[node].left;
  }
  return tree_[node].rect;
}

PeerId MidasOverlay::ResponsiblePeer(const Point& p) const {
  RIPPLE_DCHECK(options_.domain.Contains(p));
  int node = root_;
  while (!tree_[node].IsLeaf()) {
    const TreeNode& left = tree_[tree_[node].left];
    node = left.rect.ContainsHalfOpen(p, options_.domain) ? tree_[node].left
                                                          : tree_[node].right;
  }
  return tree_[node].leaf_peer;
}

PeerId MidasOverlay::RouteFrom(PeerId from, const Point& p, uint64_t* hops,
                               std::vector<PeerId>* path) const {
  PeerId current = from;
  obs::RouteRecorder rec("midas", path);
  // Each hop strictly deepens the subtree shared with the target, so the
  // loop takes at most MaxDepth() iterations.
  for (size_t guard = 0; guard <= peers_.size(); ++guard) {
    const Peer& peer = GetPeer(current);
    if (peer.zone.ContainsHalfOpen(p, options_.domain)) {
      return rec.Arrive(current, hops);
    }
    PeerId next = kInvalidPeer;
    for (const Link& link : peer.links) {
      if (link.region.ContainsHalfOpen(p, options_.domain)) {
        next = link.target;
        break;
      }
    }
    RIPPLE_CHECK(next != kInvalidPeer);  // regions partition the domain
    current = rec.Step(current, next);
  }
  RIPPLE_CHECK(false && "MIDAS routing failed to converge");
  return kInvalidPeer;
}

void MidasOverlay::InsertTuple(const Tuple& t) {
  MutablePeer(ResponsiblePeer(t.key)).store.Add(t);
}

size_t MidasOverlay::TotalTuples() const {
  size_t total = 0;
  for (const Peer& p : peers_) {
    if (p.alive) total += p.store.size();
  }
  return total;
}

void MidasOverlay::SetLinkTarget(PeerId owner, int link_index, PeerId target) {
  Peer& p = MutablePeer(owner);
  RIPPLE_DCHECK(link_index >= 0 &&
                link_index < static_cast<int>(p.links.size()));
  p.links[link_index].target = target;
  backlinks_[target].push_back(BackRef{owner, link_index});
}

void MidasOverlay::RemoveBackRef(PeerId target, const BackRef& ref) {
  auto& refs = backlinks_[target];
  const auto it = std::find(refs.begin(), refs.end(), ref);
  RIPPLE_DCHECK(it != refs.end());
  *it = refs.back();
  refs.pop_back();
}

void MidasOverlay::ReassignBackLinks(PeerId old_target, PeerId new_target) {
  if (old_target == new_target) return;
  auto refs = std::move(backlinks_[old_target]);
  backlinks_[old_target].clear();
  for (const BackRef& ref : refs) {
    peers_[ref.from].links[ref.link_index].target = new_target;
    backlinks_[new_target].push_back(ref);
  }
}

void MidasOverlay::ApplyPatternRuleAfterSplit(PeerId stay, PeerId fresh) {
  if (!options_.border_pattern_links) return;
  const bool stay_matches =
      MatchesAnyBorderPattern(peers_[stay].id, options_.dims);
  const bool fresh_matches =
      MatchesAnyBorderPattern(peers_[fresh].id, options_.dims);
  // §5.2: when exactly one of the two new siblings obeys a pattern, all
  // back-links of the original peer move to the obeying one.
  if (fresh_matches && !stay_matches) {
    ReassignBackLinks(stay, fresh);
  }
  // When `stay` matches (or neither does), back-links already point at it.
}

int MidasOverlay::NodeOfPrefix(const BitString& prefix) const {
  int node = root_;
  for (int t = 0; t < prefix.size(); ++t) {
    RIPPLE_CHECK(!tree_[node].IsLeaf());
    node = prefix.bit(t) ? tree_[node].right : tree_[node].left;
  }
  return node;
}

PeerId MidasOverlay::FindPatternLeaf(int node, const BitString& prefix,
                                     int* budget) const {
  if (--(*budget) < 0) return kInvalidPeer;
  if (!PrefixCanMatchBorderPattern(prefix, options_.dims)) {
    return kInvalidPeer;
  }
  if (tree_[node].IsLeaf()) return tree_[node].leaf_peer;
  // The 0-child keeps every pattern alive; try it first.
  const PeerId left = FindPatternLeaf(tree_[node].left, prefix.Child(false),
                                      budget);
  if (left != kInvalidPeer) return left;
  return FindPatternLeaf(tree_[node].right, prefix.Child(true), budget);
}

void MidasOverlay::PreferPatternTargets(PeerId peer) {
  Peer& p = peers_[peer];
  for (int i = 0; i < static_cast<int>(p.links.size()); ++i) {
    const PeerId current = p.links[i].target;
    if (MatchesAnyBorderPattern(peers_[current].id, options_.dims)) continue;
    const BitString sibling = p.id.Prefix(i + 1).Sibling();
    int budget = 64;
    const PeerId candidate =
        FindPatternLeaf(NodeOfPrefix(sibling), sibling, &budget);
    if (candidate == kInvalidPeer || candidate == current) continue;
    RemoveBackRef(current, BackRef{peer, i});
    SetLinkTarget(peer, i, candidate);
  }
}

PeerId MidasOverlay::Join() {
  // The MIDAS join protocol: the newcomer contacts a uniformly random
  // existing peer, which splits its zone.
  return JoinSplitting(RandomPeer(&rng_));
}

PeerId MidasOverlay::JoinAt(const Point& key) {
  return JoinSplitting(ResponsiblePeer(key));
}

PeerId MidasOverlay::JoinSplitting(PeerId split_peer) {
  Peer& w = MutablePeer(split_peer);
  const int node = TreeNodeOfLeaf(split_peer);
  const int depth = w.id.size();
  const int dim = depth % options_.dims;
  double split_value = 0.5 * (w.zone.lo()[dim] + w.zone.hi()[dim]);
  if (options_.split_rule == MidasSplitRule::kDataMedian &&
      w.store.size() >= 2) {
    const double median = w.store.MedianAlong(dim);
    // The median must fall strictly inside the zone or the split would
    // leave one side empty of space.
    if (median > w.zone.lo()[dim] && median < w.zone.hi()[dim]) {
      split_value = median;
    }
  }
  const auto [lower, upper] = w.zone.Split(dim, split_value);

  const PeerId fresh_id = AllocatePeer();
  Peer& w2 = peers_[split_peer];  // re-reference: AllocatePeer may realloc
  Peer& n = peers_[fresh_id];

  // Identities and zones. Which physical peer takes which half is the
  // protocol's free choice (§5.2 builds on exactly this freedom): the
  // splitter keeps a random half and the newcomer takes the other.
  const bool splitter_keeps_lower = rng_.Bernoulli(0.5);
  n.id = w2.id.Child(splitter_keeps_lower);
  w2.id.Append(!splitter_keeps_lower);
  w2.zone = splitter_keeps_lower ? lower : upper;
  n.zone = splitter_keeps_lower ? upper : lower;
  n.alive = true;

  // Virtual tree: the leaf becomes internal with two leaf children.
  auto alloc_node = [&]() -> int {
    if (!free_tree_nodes_.empty()) {
      const int idx = free_tree_nodes_.back();
      free_tree_nodes_.pop_back();
      tree_[idx] = TreeNode{};
      return idx;
    }
    tree_.emplace_back();
    return static_cast<int>(tree_.size()) - 1;
  };
  const int left_node = alloc_node();
  const int right_node = alloc_node();
  const PeerId lower_peer = splitter_keeps_lower ? split_peer : fresh_id;
  const PeerId upper_peer = splitter_keeps_lower ? fresh_id : split_peer;
  tree_[left_node] = TreeNode{node, -1, -1, lower, lower_peer};
  tree_[right_node] = TreeNode{node, -1, -1, upper, upper_peer};
  tree_[node].left = left_node;
  tree_[node].right = right_node;
  tree_[node].leaf_peer = kInvalidPeer;
  leaf_node_of_peer_[lower_peer] = left_node;
  leaf_node_of_peer_[upper_peer] = right_node;

  // Data handoff: tuples now outside the splitter's shrunk zone move over.
  n.store.AddAll(w2.store.ExtractOutside(w2.zone, options_.domain));

  // Join protocol, link setup. The new peer copies the splitter's link
  // table: for every depth up to the old depth both peers see the same
  // sibling subtrees, hence the same regions and usable targets.
  n.links = w2.links;
  for (int i = 0; i < static_cast<int>(n.links.size()); ++i) {
    backlinks_[n.links[i].target].push_back(BackRef{fresh_id, i});
  }

  // §5.2 back-link reassignment considers only pre-existing links, whose
  // regions contain both siblings; the mutual links added below are pinned.
  ApplyPatternRuleAfterSplit(split_peer, fresh_id);
  if (options_.border_pattern_links) {
    // §5.2 link establishment: the newcomer's copied links (and the
    // splitter's) prefer border-pattern targets where available.
    PreferPatternTargets(fresh_id);
    PreferPatternTargets(split_peer);
  }

  // Mutual links at the new depth: each sibling's region is the other's
  // zone (the sibling subtree rooted at depth `depth + 1`).
  w2.links.push_back(Link{fresh_id, n.zone, depth + 1});
  backlinks_[fresh_id].push_back(
      BackRef{split_peer, static_cast<int>(w2.links.size()) - 1});
  n.links.push_back(Link{split_peer, w2.zone, depth + 1});
  backlinks_[split_peer].push_back(
      BackRef{fresh_id, static_cast<int>(n.links.size()) - 1});

  ++alive_count_;
  RIPPLE_LOG(kDebug, "midas: peer %u joined splitting %u (depth %d, dim %d)",
             fresh_id, split_peer, depth + 1, dim);
  return fresh_id;
}

Status MidasOverlay::Leave(PeerId id) {
  if (id >= peers_.size() || !peers_[id].alive) {
    return Status::NotFound("no such live peer");
  }
  if (alive_count_ <= 1) {
    return Status::FailedPrecondition("cannot remove the last peer");
  }

  const int node = TreeNodeOfLeaf(id);
  const int parent = tree_[node].parent;
  RIPPLE_CHECK(parent >= 0);
  const int sibling_node =
      tree_[parent].left == node ? tree_[parent].right : tree_[parent].left;

  // Merges sibling leaves `gone` and `absorber` into their parent node
  // `par`: the absorber takes over the parent zone, the departing peer's
  // tuples, and the back-links that pointed at it.
  auto merge_into_sibling = [&](PeerId gone, PeerId absorber, int par) {
    Peer& g = peers_[gone];
    Peer& a = peers_[absorber];
    // Drop the absorber's deepest link — it pointed at the departing peer.
    RIPPLE_CHECK(!a.links.empty());
    RIPPLE_CHECK(a.links.back().target == gone);
    RemoveBackRef(gone, BackRef{absorber,
                                static_cast<int>(a.links.size()) - 1});
    a.links.pop_back();
    // Unregister the departing peer's links.
    for (int i = 0; i < static_cast<int>(g.links.size()); ++i) {
      RemoveBackRef(g.links[i].target, BackRef{gone, i});
    }
    g.links.clear();
    // Zone and identity take-over.
    a.id = a.id.Parent();
    a.zone = tree_[par].rect;
    a.store.AddAll(g.store);
    g.store.Clear();
    // Everything that pointed at the departing peer now points at the
    // absorber (regions contained the whole parent subtree already).
    ReassignBackLinks(gone, absorber);
    // Collapse the tree node pair.
    free_tree_nodes_.push_back(tree_[par].left);
    free_tree_nodes_.push_back(tree_[par].right);
    tree_[par].left = -1;
    tree_[par].right = -1;
    tree_[par].leaf_peer = absorber;
    leaf_node_of_peer_[absorber] = par;
  };

  if (tree_[sibling_node].IsLeaf()) {
    // Case A: the sibling absorbs the departing peer directly.
    const PeerId absorber = tree_[sibling_node].leaf_peer;
    merge_into_sibling(id, absorber, parent);
  } else {
    // Case B: the sibling subtree is internal. Find a pair of sibling
    // leaves (u, v) inside it; v vacates its spot (u absorbs it) and then
    // assumes the departing peer's identity, zone, links and data.
    int probe = sibling_node;
    while (!tree_[tree_[probe].left].IsLeaf() ||
           !tree_[tree_[probe].right].IsLeaf()) {
      probe = tree_[tree_[probe].left].IsLeaf() ? tree_[probe].right
                                                : tree_[probe].left;
    }
    const PeerId u = tree_[tree_[probe].left].leaf_peer;
    const PeerId v = tree_[tree_[probe].right].leaf_peer;
    merge_into_sibling(v, u, probe);

    // v assumes d's position.
    Peer& d = peers_[id];
    Peer& rv = peers_[v];
    rv.id = d.id;
    rv.zone = d.zone;
    rv.store.Clear();
    rv.store.AddAll(d.store);
    d.store.Clear();
    rv.links = std::move(d.links);
    d.links.clear();
    for (int i = 0; i < static_cast<int>(rv.links.size()); ++i) {
      // Transfer back-ref ownership from d to v.
      RemoveBackRef(rv.links[i].target, BackRef{id, i});
      backlinks_[rv.links[i].target].push_back(BackRef{v, i});
    }
    ReassignBackLinks(id, v);
    tree_[node].leaf_peer = v;
    leaf_node_of_peer_[v] = node;
  }

  peers_[id].alive = false;
  leaf_node_of_peer_[id] = -1;
  RIPPLE_CHECK(backlinks_[id].empty());
  free_peers_.push_back(id);
  --alive_count_;
  return Status::OK();
}

Status MidasOverlay::LeaveRandom(Rng* rng) {
  if (alive_count_ <= 1) {
    return Status::FailedPrecondition("cannot remove the last peer");
  }
  return Leave(RandomPeer(rng));
}

Status MidasOverlay::Validate() const {
  size_t seen_alive = 0;
  double zone_volume = 0.0;
  for (PeerId id = 0; id < peers_.size(); ++id) {
    const Peer& p = peers_[id];
    if (!p.alive) continue;
    ++seen_alive;
    zone_volume += p.zone.Volume();
    // Zone must match the id-derived rectangle and the tree leaf.
    if (p.zone != SubtreeRect(p.id)) {
      return Status::Internal("zone does not match id-derived rect for peer " +
                              std::to_string(id));
    }
    const int node = leaf_node_of_peer_[id];
    if (node < 0 || !tree_[node].IsLeaf() || tree_[node].leaf_peer != id ||
        tree_[node].rect != p.zone) {
      return Status::Internal("tree leaf inconsistent for peer " +
                              std::to_string(id));
    }
    // One link per depth, with the correct region and an in-region target.
    if (static_cast<int>(p.links.size()) != p.depth()) {
      return Status::Internal("link count != depth for peer " +
                              std::to_string(id));
    }
    for (int i = 0; i < static_cast<int>(p.links.size()); ++i) {
      const Link& link = p.links[i];
      if (link.depth != i + 1) {
        return Status::Internal("bad link depth tag");
      }
      const BitString sibling = p.id.Prefix(i + 1).Sibling();
      if (link.region != SubtreeRect(sibling)) {
        return Status::Internal("link region mismatch for peer " +
                                std::to_string(id));
      }
      if (link.target >= peers_.size() || !peers_[link.target].alive) {
        return Status::Internal("link target dead");
      }
      if (!sibling.IsPrefixOf(peers_[link.target].id)) {
        return Status::Internal("link target outside its region");
      }
      // The back-link registry must know about this link.
      const auto& refs = backlinks_[link.target];
      if (std::find(refs.begin(), refs.end(), BackRef{id, i}) == refs.end()) {
        return Status::Internal("missing back-link registration");
      }
    }
    // Tuples must lie within the zone.
    const store::FlatStore& rows = p.store.flat();
    for (size_t r = 0; r < rows.size(); ++r) {
      if (!p.zone.ContainsHalfOpen(rows.PointAt(r), options_.domain)) {
        return Status::Internal("tuple outside owning zone");
      }
    }
  }
  if (seen_alive != alive_count_) {
    return Status::Internal("alive count mismatch");
  }
  if (std::abs(zone_volume - options_.domain.Volume()) >
      1e-9 * options_.domain.Volume()) {
    return Status::Internal("zones do not partition the domain");
  }
  // Every registered back-link must correspond to a real link.
  for (PeerId target = 0; target < peers_.size(); ++target) {
    for (const BackRef& ref : backlinks_[target]) {
      if (ref.from >= peers_.size() || !peers_[ref.from].alive) {
        return Status::Internal("back-link from dead peer");
      }
      const Peer& from = peers_[ref.from];
      if (ref.link_index >= static_cast<int>(from.links.size()) ||
          from.links[ref.link_index].target != target) {
        return Status::Internal("stale back-link registration");
      }
    }
  }
  return Status::OK();
}

}  // namespace ripple
