#include "overlay/can/can.h"

#include <algorithm>

#include "common/check.h"
#include "obs/profile.h"

namespace ripple {

CanOverlay::CanOverlay(const CanOptions& options)
    : options_(options),
      rng_(options.seed),
      tree_(ZoneDomain(options.dims, options.domain)),
      peers_(1) {
  options_.domain = tree_.domain();
  peers_[0].zone = options_.domain;
}

bool CanOverlay::AreNeighbors(const Rect& a, const Rect& b) const {
  int abutting = 0;
  for (int d = 0; d < options_.dims; ++d) {
    const double overlap =
        std::min(a.hi()[d], b.hi()[d]) - std::max(a.lo()[d], b.lo()[d]);
    if (overlap > 0) continue;  // positive-extent overlap in this dimension
    if (overlap == 0 && (a.hi()[d] == b.lo()[d] || b.hi()[d] == a.lo()[d])) {
      ++abutting;
      continue;
    }
    return false;  // disjoint along this dimension
  }
  return abutting == 1;
}

void CanOverlay::Unlink(PeerId a, PeerId b) {
  auto drop = [](std::vector<PeerId>* v, PeerId x) {
    const auto it = std::find(v->begin(), v->end(), x);
    if (it != v->end()) {
      *it = v->back();
      v->pop_back();
    }
  };
  drop(&peers_[a].neighbors, b);
  drop(&peers_[b].neighbors, a);
}

std::vector<PeerId> CanOverlay::Detach(PeerId id) {
  std::vector<PeerId> old = std::move(peers_[id].neighbors);
  peers_[id].neighbors.clear();
  for (PeerId nb : old) Unlink(id, nb);
  return old;
}

void CanOverlay::RefreshNeighbors(PeerId peer,
                                  const std::vector<PeerId>& candidates) {
  Peer& p = peers_[peer];
  // Drop stale entries on both sides first.
  const std::vector<PeerId> old = p.neighbors;
  for (PeerId nb : old) {
    if (!tree_.IsLive(nb) || !AreNeighbors(p.zone, peers_[nb].zone)) {
      Unlink(peer, nb);
    }
  }
  // Add new adjacencies from the candidate set.
  for (PeerId c : candidates) {
    if (c == peer || !tree_.IsLive(c)) continue;
    if (!AreNeighbors(p.zone, peers_[c].zone)) continue;
    if (std::find(p.neighbors.begin(), p.neighbors.end(), c) !=
        p.neighbors.end()) {
      continue;
    }
    p.neighbors.push_back(c);
    peers_[c].neighbors.push_back(peer);
  }
}

PeerId CanOverlay::Join() {
  Point key(options_.dims);
  for (int d = 0; d < options_.dims; ++d) {
    key[d] = rng_.UniformDouble(options_.domain.lo()[d],
                                options_.domain.hi()[d]);
  }
  const PeerId owner = ResponsiblePeer(key);
  const Rect& zone = peers_[owner].zone;
  const int dim = peers_[owner].depth % options_.dims;
  const double mid = 0.5 * (zone.lo()[dim] + zone.hi()[dim]);
  // The newcomer takes the half containing its key point.
  const bool fresh_takes_lower =
      zone.Split(dim, mid).first.ContainsHalfOpen(key, options_.domain);
  const PeerId fresh = tree_.Split(owner, dim, mid, fresh_takes_lower);
  Peer& n = ResetPeerSlot(&peers_, fresh);
  Peer& w = peers_[owner];

  w.zone = tree_.Zone(owner);
  n.zone = tree_.Zone(fresh);
  n.depth = w.depth = w.depth + 1;
  n.store.AddAll(w.store.ExtractOutside(w.zone, options_.domain));

  // Neighbor maintenance: the newcomer's neighbors are a subset of the
  // splitter's old neighbors plus the splitter itself (real CAN hands over
  // exactly this candidate list).
  std::vector<PeerId> candidates = w.neighbors;
  candidates.push_back(owner);
  candidates.push_back(fresh);
  RefreshNeighbors(owner, candidates);
  RefreshNeighbors(fresh, candidates);
  return fresh;
}

void CanOverlay::MergeIntoSibling(const SplitTree::Departure& plan) {
  Peer& g = peers_[plan.vacated];
  Peer& a = peers_[plan.absorber];
  a.zone = tree_.node(plan.pair).rect;
  a.depth -= 1;
  a.store.AddAll(g.store);
  g.store.Clear();
  // Candidates for the merged zone: both former neighbor sets.
  std::vector<PeerId> candidates = a.neighbors;
  const std::vector<PeerId> gone = Detach(plan.vacated);
  candidates.insert(candidates.end(), gone.begin(), gone.end());
  RefreshNeighbors(plan.absorber, candidates);
}

Status CanOverlay::Leave(PeerId id) {
  SplitTree::Departure plan;
  RIPPLE_RETURN_IF_ERROR(tree_.PlanDeparture(id, &plan));
  MergeIntoSibling(plan);
  if (plan.takeover()) {
    // v vacated its leaf (u absorbed it) and now assumes the departing
    // peer's zone, data and adjacency.
    const PeerId v = plan.vacated;
    Peer& d = peers_[id];
    Peer& rv = peers_[v];
    rv.zone = d.zone;
    rv.depth = d.depth;
    rv.store.AddAll(d.store);  // emptied when u absorbed it
    d.store.Clear();
    RefreshNeighbors(v, Detach(id));
  }
  tree_.CommitDeparture(plan);
  return Status::OK();
}

PeerId CanOverlay::RouteFrom(PeerId from, const Point& p, uint64_t* hops,
                             std::vector<PeerId>* path) const {
  PeerId current = from;
  obs::RouteRecorder rec("can", path);
  for (size_t guard = 0; guard <= peers_.size(); ++guard) {
    const Peer& peer = GetPeer(current);
    if (peer.zone.ContainsHalfOpen(p, options_.domain)) {
      return rec.Arrive(current, hops);
    }
    // Greedy: the neighbor whose zone is closest to the target. Distance
    // strictly decreases in a CAN grid, so this terminates.
    PeerId next = kInvalidPeer;
    double best = std::numeric_limits<double>::infinity();
    for (PeerId nb : peer.neighbors) {
      const double d = peers_[nb].zone.MinDist(p, Norm::kL2);
      if (d < best || (d == best && (next == kInvalidPeer || nb < next))) {
        best = d;
        next = nb;
      }
    }
    RIPPLE_CHECK(next != kInvalidPeer);
    current = rec.Step(current, next);
  }
  RIPPLE_CHECK(false && "CAN routing failed to converge");
  return kInvalidPeer;
}

Status CanOverlay::Validate() const {
  RIPPLE_RETURN_IF_ERROR(tree_.Validate(peers_));
  for (PeerId id : LivePeers()) {
    const Peer& p = peers_[id];
    // Neighbor lists must be exact and symmetric.
    for (PeerId nb : p.neighbors) {
      if (!tree_.IsLive(nb)) return Status::Internal("dead neighbor");
      if (!AreNeighbors(p.zone, peers_[nb].zone)) {
        return Status::Internal("non-adjacent neighbor entry");
      }
      const auto& back = peers_[nb].neighbors;
      if (std::find(back.begin(), back.end(), id) == back.end()) {
        return Status::Internal("asymmetric neighbor entry");
      }
    }
    // Exactness: every adjacent live peer must be listed.
    for (PeerId other = 0; other < peers_.size(); ++other) {
      if (other == id || !tree_.IsLive(other)) continue;
      const bool adjacent = AreNeighbors(p.zone, peers_[other].zone);
      const bool listed = std::find(p.neighbors.begin(), p.neighbors.end(),
                                    other) != p.neighbors.end();
      if (adjacent != listed) {
        return Status::Internal("neighbor set mismatch between peers " +
                                std::to_string(id) + " and " +
                                std::to_string(other));
      }
    }
  }
  return Status::OK();
}

}  // namespace ripple
