#include "overlay/midas/midas.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"
#include "obs/profile.h"
#include "overlay/midas/patterns.h"

namespace ripple {

MidasOverlay::MidasOverlay(const MidasOptions& options)
    : options_(options),
      rng_(options.seed),
      tree_(ZoneDomain(options.dims, options.domain)),
      peers_(1),
      backlinks_(1) {
  // Bootstrap: a single peer owning the whole domain (the tree root).
  options_.domain = tree_.domain();
  peers_[0].zone = options_.domain;
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
  int node = SplitTree::kRoot;
  for (int t = 0; t < prefix.size(); ++t) {
    RIPPLE_CHECK(!tree_.node(node).IsLeaf() &&
                 "NodeOfPrefix: prefix deeper than the virtual tree");
    node = prefix.bit(t) ? tree_.node(node).right : tree_.node(node).left;
  }
  return node;
}

PeerId MidasOverlay::FindPatternLeaf(int node, const BitString& prefix,
                                     int* budget) const {
  if (--(*budget) < 0) return kInvalidPeer;
  if (!PrefixCanMatchBorderPattern(prefix, options_.dims)) {
    return kInvalidPeer;
  }
  const SplitTree::Node& n = tree_.node(node);
  if (n.IsLeaf()) return n.leaf_peer;
  // The 0-child keeps every pattern alive; try it first.
  const PeerId left = FindPatternLeaf(n.left, prefix.Child(false), budget);
  if (left != kInvalidPeer) return left;
  return FindPatternLeaf(n.right, prefix.Child(true), budget);
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
    p.links[i].target = candidate;
    backlinks_[candidate].push_back(BackRef{peer, i});
  }
}

PeerId MidasOverlay::JoinSplitting(PeerId split_peer) {
  const Peer& w = GetPeer(split_peer);
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

  // Identities and zones. Which physical peer takes which half is the
  // protocol's free choice (§5.2 builds on exactly this freedom): the
  // splitter keeps a random half and the newcomer takes the other.
  const bool splitter_keeps_lower = rng_.Bernoulli(0.5);
  const PeerId fresh_id =
      tree_.Split(split_peer, dim, split_value, !splitter_keeps_lower);
  Peer& n = ResetPeerSlot(&peers_, fresh_id);
  ResetPeerSlot(&backlinks_, fresh_id);
  Peer& w2 = peers_[split_peer];  // re-reference: the slot may realloc
  n.id = w2.id.Child(splitter_keeps_lower);
  w2.id.Append(!splitter_keeps_lower);
  w2.zone = tree_.Zone(split_peer);
  n.zone = tree_.Zone(fresh_id);

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

  RIPPLE_LOG(kDebug, "midas: peer %u joined splitting %u (depth %d, dim %d)",
             fresh_id, split_peer, depth + 1, dim);
  return fresh_id;
}

void MidasOverlay::MergeIntoSibling(const SplitTree::Departure& plan) {
  const PeerId gone = plan.vacated, absorber = plan.absorber;
  Peer& g = peers_[gone];
  Peer& a = peers_[absorber];
  // Drop the absorber's deepest link — it pointed at the departing peer.
  RIPPLE_CHECK(!a.links.empty());
  RIPPLE_CHECK(a.links.back().target == gone);
  RemoveBackRef(gone, BackRef{absorber, static_cast<int>(a.links.size()) - 1});
  a.links.pop_back();
  // Unregister the departing peer's links.
  for (int i = 0; i < static_cast<int>(g.links.size()); ++i) {
    RemoveBackRef(g.links[i].target, BackRef{gone, i});
  }
  g.links.clear();
  // Zone and identity take-over.
  a.id = a.id.Parent();
  a.zone = tree_.node(plan.pair).rect;
  a.store.AddAll(g.store);
  g.store.Clear();
  // Everything that pointed at the departing peer now points at the
  // absorber (regions contained the whole parent subtree already).
  ReassignBackLinks(gone, absorber);
}

Status MidasOverlay::Leave(PeerId id) {
  SplitTree::Departure plan;
  RIPPLE_RETURN_IF_ERROR(tree_.PlanDeparture(id, &plan));
  // The sibling leaf absorbs the departing peer directly, or (a take-over)
  // u absorbs v inside the sibling subtree and v assumes the departing
  // peer's identity, zone, links and data.
  MergeIntoSibling(plan);
  if (plan.takeover()) {
    const PeerId v = plan.vacated;
    Peer& d = peers_[id];
    Peer& rv = peers_[v];
    rv.id = d.id;
    rv.zone = d.zone;
    rv.store.AddAll(d.store);  // emptied when u absorbed it
    d.store.Clear();
    rv.links = std::move(d.links);
    d.links.clear();
    for (int i = 0; i < static_cast<int>(rv.links.size()); ++i) {
      // Transfer back-ref ownership from d to v.
      RemoveBackRef(rv.links[i].target, BackRef{id, i});
      backlinks_[rv.links[i].target].push_back(BackRef{v, i});
    }
    ReassignBackLinks(id, v);
  }
  RIPPLE_CHECK(backlinks_[id].empty());
  tree_.CommitDeparture(plan);
  return Status::OK();
}

Status MidasOverlay::Validate() const {
  RIPPLE_RETURN_IF_ERROR(tree_.Validate(peers_));
  for (PeerId id : LivePeers()) {
    const Peer& p = peers_[id];
    // Zone must match the id-derived rectangle.
    if (p.zone != SubtreeRect(p.id)) {
      return Status::Internal("zone does not match id-derived rect for peer " +
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
      if (!tree_.IsLive(link.target)) {
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
  }
  // Every registered back-link must correspond to a real link.
  for (PeerId target = 0; target < peers_.size(); ++target) {
    for (const BackRef& ref : backlinks_[target]) {
      if (!tree_.IsLive(ref.from)) {
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
