#ifndef RIPPLE_STORE_LOCAL_STORE_H_
#define RIPPLE_STORE_LOCAL_STORE_H_

#include <atomic>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "geom/rect.h"
#include "geom/scoring.h"
#include "store/bounded_topk.h"
#include "store/flat_store.h"
#include "store/kd_index.h"
#include "store/local_algos.h"
#include "store/tuple.h"

namespace ripple {

/// A peer's local tuple storage plus the query primitives the RIPPLE
/// policies need from local data. Rows live in a store::FlatStore (flat
/// structure-of-arrays: ids plus d contiguous coordinate columns), so the
/// scan paths batch-score whole columns (Scorer::ScoreBlock) into a
/// bounded top-k queue instead of walking Tuple records. Stores of at
/// least kIndexThreshold rows are read through a lazily built k-d index;
/// smaller stores are scanned directly.
///
/// A single Add to an indexed store joins the index's write tail (see
/// KdIndex::AppendTail) while the tail holds fewer than kIndexThreshold
/// rows, so a write batch does not throw the index away. The write after
/// that, and every bulk mutation (AddAll, ExtractOutside, Clear),
/// invalidates the index, and the next read rebuilds it over the whole
/// store with an empty tail.
///
/// Mutations are single-threaded, but const reads may run concurrently
/// (executor workers share one overlay): the first read after an
/// invalidation builds the index under a lock and publishes it through a
/// release flag, so later reads take one acquire load. The index is the
/// only lazily built state.
class LocalStore {
 public:
  LocalStore() = default;

  size_t size() const { return flat_.size(); }
  bool empty() const { return flat_.empty(); }

  /// The backing columnar rows (insertion order).
  const store::FlatStore& flat() const { return flat_; }

  /// Row-order materialization into edge Tuples (wire, oracles, tests).
  TupleVec Snapshot() const { return flat_.Materialize(); }

  /// Calls `fn(const Tuple&)` for every stored tuple in row order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < flat_.size(); ++i) fn(flat_.TupleAt(i));
  }

  /// How many rows sit in the published index's write tail (0 when no
  /// index is published).
  size_t tail_size() const {
    return index_ready_.Get() ? index_.tail_size() : 0;
  }

  /// Whether a tuple with this id is stored here (a scan of the id
  /// column).
  bool ContainsId(uint64_t id) const;

  void Add(const Tuple& t);
  void AddAll(const TupleVec& ts);
  /// Column-wise bulk absorb of another store's rows (zone merges).
  void AddAll(const LocalStore& other);
  void Clear();

  /// Removes and returns every tuple whose key is NOT inside `zone`
  /// (half-open semantics relative to `domain`). Used when a zone is split
  /// and half the data moves to the new peer.
  TupleVec ExtractOutside(const Rect& zone, const Rect& domain);

  /// Up to `k` local tuples with score >= `tau`, best first (Alg. 4
  /// line 1). Inclusive so that a tuple witnessing the threshold itself is
  /// selected — with strict comparison the k-th answer tuple would be
  /// silently dropped whenever a state whose tau equals its score reaches
  /// its owner.
  TupleVec TopKAbove(const Scorer& scorer, size_t k, double tau) const;

  /// Up to `count` highest-ranking local tuples with score strictly below
  /// `tau` (Alg. 4 line 3: fill the answer with the best of the rest;
  /// strict so the two selections never double-count a tuple).
  TupleVec BestBelow(const Scorer& scorer, size_t count, double tau) const;

  /// A top-k selection counted instead of materialized: how many rows it
  /// keeps, and the lowest kept score (+inf when none) — bit-identical to
  /// the lowest Scorer::Score of the tuples the materializing form
  /// returns, since the kernels score through ScoreBlock.
  struct TopKCount {
    size_t count = 0;
    double lowest = std::numeric_limits<double>::infinity();
  };
  /// TopKAbove / BestBelow counted: the same selection, the same
  /// tuples_scanned and heap_pushes, no Tuple built (Alg. 4's (m, tau)).
  TopKCount CountTopKAbove(const Scorer& scorer, size_t k, double tau) const;
  TopKCount CountBestBelow(const Scorer& scorer, size_t count,
                           double tau) const;

  /// Every local tuple with score >= `tau` (Alg. 6).
  TupleVec AllAtLeast(const Scorer& scorer, double tau) const;

  /// Every local tuple p with Distance(p, center, norm) <= radius, in row
  /// order (ForEach's). A column scan through NearestScorer::ScoreBlock,
  /// which is Distance's per-element chain negated, so the test is exact;
  /// like ForEach it advances no kernel counter.
  TupleVec Within(const Point& center, double radius, Norm norm) const;

  /// The store-side band kernel: the rows with fewer than `k` dominators
  /// in this store ∪ `state`, sorted by id. With `constraint`, only rows
  /// inside it are counted and returned (state tuples count wherever
  /// they lie). A state tuple this store holds is counted once, and each
  /// state id once. Runs on the flat columns below kIndexThreshold rows
  /// and on the k-d leaves above it, skipping nodes that k state tuples
  /// dominate; only the surviving rows become Tuples. Assumes the store
  /// holds each id once (the overlays place every tuple in one zone).
  TupleVec Skyband(const TupleVec& state, size_t k,
                   const Rect* constraint = nullptr) const;

  /// The local skyline (min-is-better dominance).
  TupleVec LocalSkyline() const { return Skyband({}, 1); }

  /// Median coordinate of the stored tuples along `dim` (lower median).
  /// Requires a non-empty store. Used for load-balancing zone splits.
  double MedianAlong(int dim) const;

  /// The local tuple minimizing `cost`, among tuples accepted by `admit`,
  /// pruning subtrees via `rect_lower` (sound lower bound of cost over a
  /// rect). Empty optional when the store has no admitted tuple. Ties are
  /// broken by smallest id for determinism.
  std::optional<Tuple> ArgMin(
      const std::function<double(const Point&)>& cost,
      const std::function<double(const Rect&)>& rect_lower,
      const std::function<bool(const Tuple&)>& admit,
      double* best_cost) const;

  /// Below this many tuples a plain scan beats the index. It also bounds
  /// an index's write tail: the 33rd tail row invalidates the index.
  static constexpr size_t kIndexThreshold = 32;

 private:
  /// Rebuilds the k-d index if stale; returns it (nullptr for tiny stores).
  const KdIndex* Index() const;

  /// The one selection loop behind TopKAbove, BestBelow and their
  /// counting forms: fills `queue` with the best rows scoring >= tau
  /// (`above`, through the index when there is one) or < tau (a flat
  /// scan), and returns the rows its payloads index.
  const store::FlatStore& Select(const Scorer& scorer, double tau,
                                 bool above, store::BoundedTopK* queue) const;

  void MarkMutated() { index_ready_.Clear(); }

  /// Whether the lazily built index is current. Copies by value (the
  /// store is copied and moved only while no reader runs), and never
  /// throws, so overlays' peer vectors still relocate stores by move.
  class ReadyFlag {
   public:
    ReadyFlag() = default;
    ReadyFlag(const ReadyFlag& o) noexcept
        : v_(o.v_.load(std::memory_order_relaxed)) {}
    ReadyFlag& operator=(const ReadyFlag& o) noexcept {
      v_.store(o.v_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
      return *this;
    }
    bool Get() const { return v_.load(std::memory_order_acquire); }
    void Publish() { v_.store(true, std::memory_order_release); }
    void Clear() { v_.store(false, std::memory_order_relaxed); }

   private:
    std::atomic<bool> v_{false};
  };

  store::FlatStore flat_;
  mutable KdIndex index_;
  mutable ReadyFlag index_ready_;
};

}  // namespace ripple

#endif  // RIPPLE_STORE_LOCAL_STORE_H_
