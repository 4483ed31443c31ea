#include "overlay/split_tree.h"

#include <string>

#include "common/check.h"

namespace ripple {
namespace {

// The last index freed into `free`, or a new slot at the end of `slots`.
template <typename Index, typename T>
Index TakeSlot(std::vector<Index>* free, std::vector<T>* slots) {
  if (free->empty()) {
    slots->emplace_back();
    return static_cast<Index>(slots->size() - 1);
  }
  const Index index = free->back();
  free->pop_back();
  return index;
}

}  // namespace

Rect ZoneDomain(int dims, const Rect& domain) {
  RIPPLE_CHECK(dims >= 1 && dims <= kMaxDims);
  const Rect out = domain.dims() == 0 ? Rect::Unit(dims) : domain;
  RIPPLE_CHECK(out.dims() == dims);
  return out;
}

SplitTree::SplitTree(const Rect& domain) : leaf_of_{kRoot} {
  nodes_.push_back(Node{.rect = domain, .leaf_peer = 0});
}

std::vector<PeerId> SplitTree::LivePeers() const {
  std::vector<PeerId> out;
  out.reserve(live_);
  for (PeerId id = 0; id < leaf_of_.size(); ++id) {
    if (leaf_of_[id] >= 0) out.push_back(id);
  }
  return out;
}

PeerId SplitTree::RandomPeer(Rng* rng) const {
  for (;;) {
    const PeerId id = static_cast<PeerId>(rng->UniformU64(leaf_of_.size()));
    if (leaf_of_[id] >= 0) return id;
  }
}

PeerId SplitTree::Split(PeerId owner, int dim, double value,
                        bool fresh_takes_lower) {
  const PeerId fresh = TakeSlot(&free_peers_, &leaf_of_);
  const int node = leaf_of_[owner];
  auto [lower, upper] = nodes_[node].rect.Split(dim, value);
  const int left = TakeSlot(&free_nodes_, &nodes_);
  const int right = TakeSlot(&free_nodes_, &nodes_);
  const PeerId lower_peer = fresh_takes_lower ? fresh : owner;
  const PeerId upper_peer = fresh_takes_lower ? owner : fresh;
  nodes_[left] = Node{node, -1, -1, std::move(lower), lower_peer};
  nodes_[right] = Node{node, -1, -1, std::move(upper), upper_peer};
  nodes_[node].left = left;
  nodes_[node].right = right;
  nodes_[node].leaf_peer = kInvalidPeer;
  leaf_of_[lower_peer] = left;
  leaf_of_[upper_peer] = right;
  ++live_;
  return fresh;
}

Status SplitTree::PlanDeparture(PeerId id, Departure* out) const {
  if (!IsLive(id)) return Status::NotFound("no such live peer");
  if (live_ <= 1) {
    return Status::FailedPrecondition("cannot remove the last peer");
  }
  const int node = leaf_of_[id];
  const Node& parent = nodes_[nodes_[node].parent];
  const int sibling = parent.left == node ? parent.right : parent.left;
  if (nodes_[sibling].IsLeaf()) {
    *out = Departure{id, nodes_[sibling].leaf_peer, id, nodes_[node].parent};
    return Status::OK();
  }
  // Take-over: descend the sibling subtree to a node with two leaves.
  int pair = sibling;
  while (!nodes_[nodes_[pair].left].IsLeaf() ||
         !nodes_[nodes_[pair].right].IsLeaf()) {
    pair = nodes_[nodes_[pair].left].IsLeaf() ? nodes_[pair].right
                                              : nodes_[pair].left;
  }
  *out = Departure{id, nodes_[nodes_[pair].left].leaf_peer,
                   nodes_[nodes_[pair].right].leaf_peer, pair};
  return Status::OK();
}

void SplitTree::CommitDeparture(const Departure& plan) {
  Node& pair = nodes_[plan.pair];
  free_nodes_.push_back(pair.left);
  free_nodes_.push_back(pair.right);
  pair.left = -1;
  pair.right = -1;
  pair.leaf_peer = plan.absorber;
  leaf_of_[plan.absorber] = plan.pair;
  if (plan.takeover()) {
    const int node = leaf_of_[plan.leaving];
    nodes_[node].leaf_peer = plan.vacated;
    leaf_of_[plan.vacated] = node;
  }
  leaf_of_[plan.leaving] = -1;
  free_peers_.push_back(plan.leaving);
  --live_;
}

Status SplitTree::CheckLeaf(PeerId id, const Rect& zone,
                            const store::FlatStore& rows) const {
  const Node& leaf = nodes_[leaf_of_[id]];
  if (!leaf.IsLeaf() || leaf.leaf_peer != id || leaf.rect != zone) {
    return Status::Internal("tree leaf inconsistent for peer " +
                            std::to_string(id));
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    if (!zone.ContainsHalfOpen(rows.PointAt(r), domain())) {
      return Status::Internal("tuple outside owning zone");
    }
  }
  return Status::OK();
}

}  // namespace ripple
