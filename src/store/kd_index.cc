#include "store/kd_index.h"

#include <algorithm>
#include <numeric>

#include "common/arena.h"
#include "store/local_algos.h"

namespace ripple {

void KdIndex::Build(const TupleVec& tuples) {
  store::FlatStore flat;
  flat.AppendAll(tuples);
  Build(flat);
}

void KdIndex::Build(const store::FlatStore& src) {
  nodes_.clear();
  rows_.Clear();
  tree_rows_ = src.size();
  tree_nodes_ = 0;
  if (src.empty()) return;
  const uint32_t n = static_cast<uint32_t>(src.size());
  // The tree is built over a row permutation (nth_element moves 4-byte
  // indices, not tuples); the columns are gathered into tree order once
  // at the end, so every leaf owns a contiguous slice of each column.
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  nodes_.reserve(2 * src.size() / kLeafSize + 2);
  const int root = BuildRec(src, &perm, 0, n, 0);
  RIPPLE_CHECK(root == kRoot);
  tree_nodes_ = static_cast<int>(nodes_.size());
  rows_ = src.Permuted(perm);
}

void KdIndex::AppendTail(const Tuple& t) {
  RIPPLE_CHECK(!empty());
  const uint32_t row = static_cast<uint32_t>(rows_.size());
  rows_.Append(t);
  if (static_cast<int>(nodes_.size()) == tree_nodes_ ||
      nodes_.back().end - nodes_.back().begin == kLeafSize) {
    Node leaf;
    leaf.begin = row;
    leaf.end = row + 1;
    leaf.bounds = Rect(t.key, t.key);
    nodes_.push_back(leaf);
    return;
  }
  Node& leaf = nodes_.back();
  leaf.end = row + 1;
  Point lo = leaf.bounds.lo();
  Point hi = leaf.bounds.hi();
  for (int d = 0; d < rows_.dims(); ++d) {
    lo[d] = std::min(lo[d], t.key[d]);
    hi[d] = std::max(hi[d], t.key[d]);
  }
  leaf.bounds = Rect(lo, hi);
}

Point KdIndex::UpperCorner() const {
  Point hi = nodes_[kRoot].bounds.hi();
  ForEachSeed([&](int node) {
    const Point& h = nodes_[node].bounds.hi();
    for (int d = 0; d < rows_.dims(); ++d) hi[d] = std::max(hi[d], h[d]);
  });
  return hi;
}

Rect KdIndex::BoundsOf(const store::FlatStore& src,
                       const std::vector<uint32_t>& perm, uint32_t begin,
                       uint32_t end) const {
  Point lo = src.PointAt(perm[begin]);
  Point hi = lo;
  for (uint32_t i = begin + 1; i < end; ++i) {
    for (int d = 0; d < src.dims(); ++d) {
      const double v = src.col(d)[perm[i]];
      lo[d] = std::min(lo[d], v);
      hi[d] = std::max(hi[d], v);
    }
  }
  return Rect(lo, hi);
}

int KdIndex::BuildRec(const store::FlatStore& src,
                      std::vector<uint32_t>* perm, uint32_t begin,
                      uint32_t end, int depth) {
  const int index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[index].bounds = BoundsOf(src, *perm, begin, end);
  if (end - begin <= kLeafSize) {
    nodes_[index].begin = begin;
    nodes_[index].end = end;
    return index;
  }
  // Split along the widest dimension of the bounding rect at the median.
  const Rect& b = nodes_[index].bounds;
  int dim = depth % src.dims();
  double widest = -1.0;
  for (int d = 0; d < b.dims(); ++d) {
    const double w = b.hi()[d] - b.lo()[d];
    if (w > widest) {
      widest = w;
      dim = d;
    }
  }
  const uint32_t mid = (begin + end) / 2;
  const double* coord = src.col(dim);
  std::nth_element(perm->begin() + begin, perm->begin() + mid,
                   perm->begin() + end,
                   [coord](uint32_t a, uint32_t b2) {
                     return coord[a] < coord[b2];
                   });
  const int left = BuildRec(src, perm, begin, mid, depth + 1);
  const int right = BuildRec(src, perm, mid, end, depth + 1);
  nodes_[index].left = left;
  nodes_[index].right = right;
  return index;
}

void KdIndex::ScoreLeaf(const Scorer& scorer, const Node& n,
                        double* out) const {
  const double* sub[kMaxDims];
  const int d = rows_.dims();
  for (int c = 0; c < d; ++c) sub[c] = rows_.col(c) + n.begin;
  scorer.ScoreBlock(sub, d, n.end - n.begin, out);
}

void KdIndex::CollectAtLeast(const Scorer& scorer, double tau,
                             TupleVec* out) const {
  if (empty()) return;
  ForEachSeed([&](int seed) { CollectRec(seed, scorer, tau, out); });
}

void KdIndex::CollectRec(int node, const Scorer& scorer, double tau,
                         TupleVec* out) const {
  const Node& n = nodes_[node];
  if (scorer.UpperBound(n.bounds) < tau) return;
  if (n.left < 0) {
    double scores[kLeafSize];
    ScoreLeaf(scorer, n, scores);
    LocalKernelCounters().tuples_scanned += n.end - n.begin;
    for (uint32_t i = n.begin; i < n.end; ++i) {
      if (scores[i - n.begin] >= tau) out->push_back(rows_.TupleAt(i));
    }
    return;
  }
  CollectRec(n.left, scorer, tau, out);
  CollectRec(n.right, scorer, tau, out);
}

size_t KdIndex::CollectBandCandidates(const ArenaColumns& state, size_t k,
                                      const Rect* constraint,
                                      uint32_t* out) const {
  size_t n = 0;
  if (empty() || k == 0) return n;
  // Depth-first from each seed, left child first. Every pop pushes at most
  // two nodes and the median-split tree is balanced, so the stack never
  // holds more than depth + 1 entries.
  int stack[128];
  int top = 0;
  ForEachSeed([&](int seed) {
    stack[top++] = seed;
    while (top > 0) {
      const Node& nd = nodes_[stack[--top]];
      if (constraint != nullptr && !nd.bounds.Intersects(*constraint)) {
        continue;
      }
      // k state tuples dominating the rect's lower corner dominate every
      // row inside it, so none of them can be in the band.
      if (state.size() >= k &&
          state.CountDominators(nd.bounds.lo(), k) >= k) {
        continue;
      }
      if (nd.left >= 0) {
        stack[top++] = nd.right;
        stack[top++] = nd.left;
        continue;
      }
      CollectRowCandidates(rows_, nd.begin, nd.end, constraint, out, &n);
    }
  });
  return n;
}

TupleVec KdIndex::TopK(const Scorer& scorer, size_t k, double floor,
                       bool inclusive_floor) const {
  TupleVec best;
  if (empty() || k == 0) return best;
  store::BoundedTopK queue(k);
  SelectTopK(scorer, floor, inclusive_floor, &queue);
  best.reserve(queue.size());
  for (const store::BoundedTopK::Entry& e : queue.SortedDescending()) {
    best.push_back(rows_.TupleAt(e.payload));
  }
  return best;
}

void KdIndex::SelectTopK(const Scorer& scorer, double floor,
                         bool inclusive_floor,
                         store::BoundedTopK* queue) const {
  if (empty() || queue->k() == 0) return;
  // Best-first expansion of (bound, node) pairs: a max-heap keyed by
  // upper bound, in the per-query arena (every node enters it at most
  // once).
  struct Entry {
    double bound;
    int node;
    bool operator<(const Entry& o) const { return bound < o.bound; }
  };
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  Entry* heap = arena.AllocateArray<Entry>(nodes_.size());
  size_t pending = 0;
  ForEachSeed([&](int seed) {
    heap[pending++] = {scorer.UpperBound(nodes_[seed].bounds), seed};
    std::push_heap(heap, heap + pending);
  });
  KernelCounters& kc = LocalKernelCounters();
  while (pending > 0) {
    std::pop_heap(heap, heap + pending);
    const Entry e = heap[--pending];
    // No remaining subtree can improve the current top-k. The cut is
    // strict even at equality: a node whose bound TIES the k-th score may
    // still hold an equal-score tuple with a smaller id, which the
    // deterministic (score desc, id asc) order must admit.
    if (e.bound < (queue->full() ? queue->threshold() : floor)) break;
    const Node& n = nodes_[e.node];
    if (n.left < 0) {
      double scores[kLeafSize];
      ScoreLeaf(scorer, n, scores);
      kc.tuples_scanned += n.end - n.begin;
      for (uint32_t i = n.begin; i < n.end; ++i) {
        const double s = scores[i - n.begin];
        if (inclusive_floor ? s < floor : s <= floor) continue;
        queue->Insert(s, rows_.id(i), i);
      }
    } else {
      for (const int child : {n.left, n.right}) {
        heap[pending++] = {scorer.UpperBound(nodes_[child].bounds), child};
        std::push_heap(heap, heap + pending);
      }
    }
  }
}

}  // namespace ripple
