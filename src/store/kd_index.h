#ifndef RIPPLE_STORE_KD_INDEX_H_
#define RIPPLE_STORE_KD_INDEX_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/kernel_counters.h"
#include "geom/rect.h"
#include "geom/scoring.h"
#include "store/bounded_topk.h"
#include "store/flat_store.h"
#include "store/tuple.h"

namespace ripple {

class ArenaColumns;

/// An in-memory balanced k-d tree over a peer's local tuples.
///
/// Peers use it to answer their share of a rank query without scanning all
/// local data: branch-and-bound pruning against a caller-supplied
/// rectangle bound. The tree is rebuilt from scratch on demand (local data
/// sets are small — this is a per-peer index, not the distributed one).
///
/// Rows written after a Build join a tail (AppendTail): they sit behind
/// the tree's rows, grouped into parentless leaves of kLeafSize rows with
/// tight rects. Every traversal starts from the root and from each tail
/// leaf, so a tail leaf is pruned like any other leaf.
///
/// Rows are held in a store::FlatStore permuted to tree order, so every
/// leaf is a contiguous [begin, end) sub-range of each coordinate column —
/// the Scorer traversals evaluate whole leaves with one ScoreBlock call
/// and feed a BoundedTopK, no per-row virtual dispatch or re-sorting.
/// They prune with Scorer::UpperBound.
///
/// ArgMin's bound functor must be *sound*: rect_lower(r) <= cost(p) for
/// every p in r.
class KdIndex {
 public:
  KdIndex() = default;

  /// Builds a balanced tree over a copy of the tuples.
  explicit KdIndex(const TupleVec& tuples) { Build(tuples); }
  explicit KdIndex(const store::FlatStore& rows) { Build(rows); }

  void Build(const store::FlatStore& rows);
  void Build(const TupleVec& tuples);

  bool empty() const { return rows_.empty(); }
  size_t size() const { return rows_.size(); }
  /// The indexed rows in tree order, then the tail rows in append order
  /// (leaf ranges index into this).
  const store::FlatStore& rows() const { return rows_; }
  /// How many rows AppendTail added since the last Build.
  size_t tail_size() const { return rows_.size() - tree_rows_; }
  /// The componentwise max over every row, tree and tail. Requires
  /// !empty().
  Point UpperCorner() const;

  /// Appends one row to the tail: into the last tail leaf, or a new one
  /// every kLeafSize rows. Requires !empty() and a key of rows().dims().
  void AppendTail(const Tuple& t);

  /// Collects every tuple whose score is >= tau (maximization semantics),
  /// pruning subtrees whose rectangle upper bound falls below tau.
  void CollectAtLeast(const Scorer& scorer, double tau, TupleVec* out) const;

  /// Returns up to k highest scoring tuples with score above `floor`
  /// (strictly, or >= when `inclusive_floor`), best first. Branch-and-bound
  /// best-first search over a BoundedTopK; ties on score break toward the
  /// smaller id, matching the SelectTopK oracle.
  TupleVec TopK(const Scorer& scorer, size_t k,
                double floor = -std::numeric_limits<double>::infinity(),
                bool inclusive_floor = false) const;

  /// TopK's selection without the tuples: leaves the selected rows in
  /// `queue` (its k() is the selection size), each payload a row index
  /// into rows(). TopK materializes this; counting callers read the
  /// queue's size() and LowestScore().
  void SelectTopK(const Scorer& scorer, double floor, bool inclusive_floor,
                  store::BoundedTopK* queue) const;

  /// The first pass of the store-side band kernel: writes to `out` the
  /// row of every leaf it reaches (inside `constraint`, when given) and
  /// returns how many it wrote. A subtree is skipped whole when at least
  /// k state tuples dominate its bounding rect (Algorithm 14's
  /// DominatesRect test, as in BBS), or when it misses the constraint.
  /// `out` must hold size() entries.
  size_t CollectBandCandidates(const ArenaColumns& state, size_t k,
                               const Rect* constraint, uint32_t* out) const;

  /// Returns the tuple minimizing `cost` among tuples accepted by `admit`,
  /// pruning subtrees whose rectangle lower bound is above the current
  /// best. Empty optional when no admitted tuple exists; ties broken by
  /// smallest id.
  template <typename CostFn, typename RectLowerFn, typename AdmitFn>
  std::optional<Tuple> ArgMin(const CostFn& cost,
                              const RectLowerFn& rect_lower,
                              const AdmitFn& admit,
                              double* best_cost_out) const;

 private:
  static constexpr int kRoot = 0;
  static constexpr size_t kLeafSize = 8;

  struct Node {
    int left = -1;    // child node indices; -1 for leaves
    int right = -1;
    uint32_t begin = 0;  // row range [begin, end) for leaves
    uint32_t end = 0;
    Rect bounds;  // tight bounding rect of the subtree's rows
  };

  /// Calls `fn(node)` for every traversal seed: the root, then each tail
  /// leaf in append order.
  template <typename Fn>
  void ForEachSeed(Fn&& fn) const {
    fn(kRoot);
    for (int i = tree_nodes_; i < static_cast<int>(nodes_.size()); ++i) fn(i);
  }

  int BuildRec(const store::FlatStore& src, std::vector<uint32_t>* perm,
               uint32_t begin, uint32_t end, int depth);
  Rect BoundsOf(const store::FlatStore& src,
                const std::vector<uint32_t>& perm, uint32_t begin,
                uint32_t end) const;

  /// Fills out[0..n.end-n.begin) with the scores of leaf `n`'s rows: one
  /// ScoreBlock call over the leaf's contiguous column sub-ranges.
  void ScoreLeaf(const Scorer& scorer, const Node& n, double* out) const;

  void CollectRec(int node, const Scorer& scorer, double tau,
                  TupleVec* out) const;

  store::FlatStore rows_;
  std::vector<Node> nodes_;
  size_t tree_rows_ = 0;  // rows_[0, tree_rows_) are the tree's
  int tree_nodes_ = 0;    // nodes_[tree_nodes_, ...) are tail leaves
};

// ---------------------------------------------------------------------------
// Implementation details only below here.
// ---------------------------------------------------------------------------

template <typename CostFn, typename RectLowerFn, typename AdmitFn>
std::optional<Tuple> KdIndex::ArgMin(const CostFn& cost,
                                     const RectLowerFn& rect_lower,
                                     const AdmitFn& admit,
                                     double* best_cost_out) const {
  if (empty()) return std::nullopt;
  std::optional<Tuple> best;
  double best_cost = std::numeric_limits<double>::infinity();
  KernelCounters& kc = LocalKernelCounters();
  // Depth-first with pruning from each seed in turn; recursion via
  // explicit stack ordered so the more promising child is visited first.
  std::vector<int> stack;
  ForEachSeed([&](int seed) { stack.insert(stack.begin(), seed); });
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    const Node& n = nodes_[node];
    // The cut is strict: a node whose bound TIES the best cost may still
    // hold an equal-cost tuple with a smaller id.
    if (best.has_value() && rect_lower(n.bounds) > best_cost) continue;
    if (n.left < 0) {
      kc.tuples_scanned += n.end - n.begin;
      for (uint32_t i = n.begin; i < n.end; ++i) {
        const Tuple t = rows_.TupleAt(i);
        if (!admit(t)) continue;
        const double c = cost(t.key);
        if (c < best_cost ||
            (c == best_cost && best.has_value() && t.id < best->id)) {
          best_cost = c;
          best = t;
        }
      }
      continue;
    }
    const double bl = rect_lower(nodes_[n.left].bounds);
    const double br = rect_lower(nodes_[n.right].bounds);
    // Push the worse child first so the better one is expanded next.
    if (bl <= br) {
      stack.push_back(n.right);
      stack.push_back(n.left);
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  if (best_cost_out != nullptr) *best_cost_out = best_cost;
  return best;
}

}  // namespace ripple

#endif  // RIPPLE_STORE_KD_INDEX_H_
