#include "overlay/baton/baton.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace ripple {

BatonOverlay::BatonOverlay(size_t num_peers, const BatonOptions& options)
    : zorder_(options.dims,
              options.domain.dims() == 0 ? Rect::Unit(options.dims)
                                         : options.domain,
              options.bits_per_dim) {
  RIPPLE_CHECK(num_peers >= 1);
  peers_.resize(num_peers);
  // Topology: peers 0..n-1 laid out as a complete binary tree (heap order).
  for (PeerId id = 0; id < num_peers; ++id) {
    Peer& p = peers_[id];
    const uint32_t heap = id + 1;  // 1-based heap index
    int level = 0;
    while ((2u << level) <= heap) ++level;
    p.level = level;
    p.pos = static_cast<int>(heap - (1u << level));
    const uint32_t parent_heap = heap / 2;
    p.parent = heap == 1 ? kInvalidPeer : parent_heap - 1;
    const uint32_t lc = heap * 2, rc = heap * 2 + 1;
    p.left_child = lc <= num_peers ? lc - 1 : kInvalidPeer;
    p.right_child = rc <= num_peers ? rc - 1 : kInvalidPeer;
    // Left/right routing tables: same level, positions pos -/+ 2^j.
    for (int j = 0; (1 << j) < (1 << level); ++j) {
      const int d = 1 << j;
      if (Exists(level, p.pos - d)) {
        p.left_table.push_back(HeapId(level, p.pos - d));
      }
      if (Exists(level, p.pos + d)) {
        p.right_table.push_back(HeapId(level, p.pos + d));
      }
    }
  }
  AssignRangesInOrder();
}

void BatonOverlay::AssignRangesInOrder() {
  // In-order traversal of the heap-shaped tree.
  inorder_.clear();
  inorder_.reserve(peers_.size());
  std::vector<std::pair<PeerId, bool>> stack;  // (node, expanded)
  stack.emplace_back(0, false);
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    if (expanded) {
      inorder_.push_back(id);
      continue;
    }
    const Peer& p = peers_[id];
    if (p.right_child != kInvalidPeer) stack.emplace_back(p.right_child, false);
    stack.emplace_back(id, true);
    if (p.left_child != kInvalidPeer) stack.emplace_back(p.left_child, false);
  }
  RIPPLE_CHECK(inorder_.size() == peers_.size());
  // Uniform key-space slices in in-order sequence.
  const uint64_t space = zorder_.key_space_size();
  const uint64_t n = peers_.size();
  for (uint64_t r = 0; r < n; ++r) {
    SetRange(&peers_[inorder_[r]], space / n * r + std::min(r, space % n),
             space / n * (r + 1) + std::min(r + 1, space % n));
  }
  // Adjacent links: in-order neighbors.
  for (uint64_t r = 0; r < n; ++r) {
    Peer& p = peers_[inorder_[r]];
    p.adj_left = r > 0 ? inorder_[r - 1] : kInvalidPeer;
    p.adj_right = r + 1 < n ? inorder_[r + 1] : kInvalidPeer;
  }
}

void BatonOverlay::RebalanceToData(const TupleVec& tuples) {
  const uint64_t n = peers_.size();
  const uint64_t space = zorder_.key_space_size();
  // Sorted Z-keys of the data.
  std::vector<uint64_t> keys;
  keys.reserve(tuples.size());
  for (const Tuple& t : tuples) keys.push_back(zorder_.Encode(t.key));
  std::sort(keys.begin(), keys.end());
  // Range boundaries at data quantiles, forced strictly increasing so
  // every peer keeps a non-empty range.
  std::vector<uint64_t> bounds(n + 1);
  bounds[0] = 0;
  bounds[n] = space;
  for (uint64_t r = 1; r < n; ++r) {
    uint64_t b = keys.empty()
                     ? space / n * r
                     : keys[std::min<size_t>(keys.size() - 1,
                                             keys.size() * r / n)];
    b = std::max(b, bounds[r - 1] + 1);
    // Leave room for the remaining peers.
    b = std::min(b, space - (n - r));
    bounds[r] = b;
  }
  // Collect stored tuples, reassign ranges, redistribute.
  TupleVec stored;
  for (Peer& p : peers_) {
    const TupleVec mine = p.store.Snapshot();
    stored.insert(stored.end(), mine.begin(), mine.end());
    p.store.Clear();
  }
  for (uint64_t r = 0; r < n; ++r) {
    SetRange(&peers_[inorder_[r]], bounds[r], bounds[r + 1]);
  }
  for (const Tuple& t : stored) InsertTuple(t);
}

const BatonOverlay::Peer& BatonOverlay::GetPeer(PeerId id) const {
  RIPPLE_DCHECK(id < peers_.size());
  return peers_[id];
}

PeerId BatonOverlay::RandomPeer(Rng* rng) const {
  return static_cast<PeerId>(rng->UniformU64(peers_.size()));
}

PeerId BatonOverlay::ResponsibleForKey(uint64_t key) const {
  // Binary search over the in-order sequence of ranges.
  size_t lo = 0, hi = inorder_.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (peers_[inorder_[mid]].range_lo <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return inorder_[lo];
}

PeerId BatonOverlay::ResponsiblePeer(const Point& p) const {
  return ResponsibleForKey(zorder_.Encode(p));
}

void BatonOverlay::InsertTuple(const Tuple& t) {
  peers_[ResponsiblePeer(t.key)].store.Add(t);
}

size_t BatonOverlay::TotalTuples() const {
  size_t total = 0;
  for (const Peer& p : peers_) total += p.store.size();
  return total;
}

PeerId BatonOverlay::RouteToKey(PeerId from, uint64_t key, uint64_t* hops,
                                std::vector<PeerId>* path) const {
  PeerId current = from;
  obs::RouteRecorder rec("baton", path);
  auto range_distance = [&](PeerId id) -> uint64_t {
    const Peer& p = peers_[id];
    if (key < p.range_lo) return p.range_lo - key;
    if (key >= p.range_hi) return key - p.range_hi + 1;
    return 0;
  };
  for (size_t guard = 0; guard <= 2 * peers_.size() + 64; ++guard) {
    if (range_distance(current) == 0) {
      return rec.Arrive(current, hops);
    }
    // BATON forwarding: among all linked peers, take the one whose range is
    // closest to the key (the exponential routing tables make the distance
    // shrink geometrically, giving O(log n) hops).
    const Peer& p = peers_[current];
    PeerId next = kInvalidPeer;
    uint64_t best = range_distance(current);
    auto consider = [&](PeerId cand) {
      if (cand == kInvalidPeer) return;
      const uint64_t d = range_distance(cand);
      if (next == kInvalidPeer || d < best) {
        best = d;
        next = cand;
      }
    };
    for (PeerId cand : p.left_table) consider(cand);
    for (PeerId cand : p.right_table) consider(cand);
    consider(p.left_child);
    consider(p.right_child);
    consider(p.adj_left);
    consider(p.adj_right);
    consider(p.parent);
    RIPPLE_CHECK(next != kInvalidPeer && "BATON routing stuck");
    current = rec.Step(current, next);
  }
  RIPPLE_CHECK(false && "BATON routing failed to converge");
  return kInvalidPeer;
}

void BatonOverlay::SetRange(Peer* p, uint64_t lo, uint64_t hi) const {
  p->range_lo = lo;
  p->range_hi = hi;
  p->region = zorder_.DecomposeInterval(lo, hi - 1);
}

Status BatonOverlay::Validate() const {
  const uint64_t n = peers_.size();
  // Ranges partition the key space in in-order sequence.
  uint64_t expected_lo = 0;
  for (uint64_t r = 0; r < n; ++r) {
    const Peer& p = peers_[inorder_[r]];
    if (p.range_lo != expected_lo || p.range_hi <= p.range_lo) {
      return Status::Internal("ranges not contiguous at rank " +
                              std::to_string(r));
    }
    expected_lo = p.range_hi;
  }
  if (expected_lo != zorder_.key_space_size()) {
    return Status::Internal("ranges do not cover the key space");
  }
  for (PeerId id = 0; id < n; ++id) {
    const Peer& p = peers_[id];
    // Parent/child symmetry.
    if (p.parent != kInvalidPeer) {
      const Peer& par = peers_[p.parent];
      if (par.left_child != id && par.right_child != id) {
        return Status::Internal("parent/child asymmetry");
      }
    }
    // In-order key ordering: left subtree < me < right subtree.
    if (p.left_child != kInvalidPeer &&
        peers_[p.left_child].range_lo >= p.range_lo) {
      return Status::Internal("left child range not below");
    }
    if (p.right_child != kInvalidPeer &&
        peers_[p.right_child].range_lo <= p.range_lo) {
      return Status::Internal("right child range not above");
    }
    // Routing tables point at the right positions.
    for (size_t j = 0; j < p.left_table.size(); ++j) {
      const Peer& q = peers_[p.left_table[j]];
      if (q.level != p.level || q.pos != p.pos - (1 << j)) {
        return Status::Internal("left routing table mismatch");
      }
    }
    for (size_t j = 0; j < p.right_table.size(); ++j) {
      const Peer& q = peers_[p.right_table[j]];
      if (q.level != p.level || q.pos != p.pos + (1 << j)) {
        return Status::Internal("right routing table mismatch");
      }
    }
    // Tuples belong to the peer's key range.
    const store::FlatStore& rows = p.store.flat();
    for (size_t r = 0; r < rows.size(); ++r) {
      const uint64_t key = zorder_.Encode(rows.PointAt(r));
      if (key < p.range_lo || key >= p.range_hi) {
        return Status::Internal("tuple key outside range");
      }
    }
  }
  return Status::OK();
}

}  // namespace ripple
