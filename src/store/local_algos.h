#ifndef RIPPLE_STORE_LOCAL_ALGOS_H_
#define RIPPLE_STORE_LOCAL_ALGOS_H_

#include <algorithm>
#include <utility>

#include "common/arena.h"
#include "common/kernel_counters.h"
#include "geom/dominance.h"
#include "store/bounded_topk.h"
#include "store/flat_store.h"
#include "store/tuple.h"

namespace ripple {

/// A growable structure-of-arrays point set backed by an arena: d column
/// arrays sized for the worst case, appended to in order. It holds a
/// running band, a merge input or the state tuples a store is counted
/// against, in the shape CountDominatorsColumns reads.
class ArenaColumns {
 public:
  ArenaColumns(Arena* arena, int dims, size_t capacity) : dims_(dims) {
    for (int c = 0; c < dims; ++c) {
      cols_[c] = arena->AllocateArray<double>(capacity);
    }
  }

  void Append(const Point& p) {
    for (int c = 0; c < dims_; ++c) cols_[c][size_] = p[c];
    ++size_;
  }

  /// How many held points dominate `p`, stopping at `limit` (>= 1).
  size_t CountDominators(const Point& p, size_t limit) const {
    return CountDominatorsColumns(cols_, dims_, size_, p, limit);
  }

  const double* const* cols() const { return cols_; }
  size_t size() const { return size_; }

 private:
  int dims_;
  size_t size_ = 0;
  double* cols_[kMaxDims] = {};
};

/// Computes the k-skyband: the tuples dominated (Pareto, min-is-better)
/// by fewer than `k` others. Deterministic: the result is sorted by tuple
/// id, and duplicate ids are collapsed to one occurrence. This is the
/// structure SPEERTO precomputes per peer (paper, Section 2.1) and the one
/// local primitive behind the skyline and skyband policies. The tuples
/// share one dimensionality (decoders reject foreign points).
///
/// The store kernel's band pass with no state: the tuples, deduplicated by
/// id, are laid out as columns and run through BandOfCandidates with
/// every state count at 0 — one forward pass in the dominance-compatible
/// order (coordinate sum, lexicographic key, id), in which every dominator
/// precedes what it dominates even when floating-point sums tie, counting
/// each candidate's dominators among the running band, stopping at `k`.
/// Counting within the band is exact: a band member's dominators are band
/// members, and a tuple outside the band has >= k dominators inside it.
/// O(n log n + n * b) where b is the band size.
TupleVec ComputeKSkyband(TupleVec tuples, size_t k);

/// The skyline (maximal set under Pareto dominance) is the 1-skyband —
/// the centralized `computeSkyline` primitive of the paper's skyline
/// state functions (Algorithms 10, 11, 13).
inline TupleVec ComputeSkyline(TupleVec tuples) {
  return ComputeKSkyband(std::move(tuples), 1);
}

/// Merges two sets that are EACH already a k-band of themselves (every
/// tuple has fewer than `k` dominators within its own input) into the
/// k-skyband of their union: exactly ComputeKSkyband(a ∪ b, k), each id
/// once, sorted by id, at the cost of the cross pairs plus the few
/// in-side counts below. This is the "band of the union" of the skyline
/// family's state functions (Algorithms 11 and 13, k = 1 for skylines);
/// every state and local answer of the family meets the precondition, and
/// re-counting the union from scratch would be quadratic in the running
/// state at every merge.
///
/// The ids of b that a holds are dropped from b by a two-pointer walk
/// (each id is counted once). Each tuple of a counts its dominators in
/// b∖a, stopping at k; with none it survives without counting within a,
/// since the precondition bounds that count; with c < k it counts within
/// a, stopping at k - c. Each tuple of b∖a does the same against all of a,
/// then within b∖a. With k = 1 no tuple ever counts within its own side.
/// The counts are CountDominatorsColumns calls.
///
/// Every skyline and skyband state is kept in ascending id order, so the
/// inputs normally arrive sorted and the two survivor runs are merged
/// linearly, with no re-sort. An input out of id order (a hostile decoded
/// state) is sorted first, after an O(n) check. Inputs that break the
/// precondition or repeat ids get a result in id order, not the band.
TupleVec MergeBands(TupleVec a, const TupleVec& b, size_t k);

/// Fills `out` with the tuples of `state` that can dominate some row of a
/// store whose rows are all <= `hi` componentwise, in ascending (sum, id)
/// order, so the strongest dominators sit in the counting kernel's
/// short-circuit head block. Skipped: tuples of another dimensionality,
/// tuples whose id is in `held_ids` (the store's id column, any order)
/// and whose key lies in `counted` (everywhere when null) — the store
/// counts those rows itself — and repeated ids (the first occurrence in
/// state order is kept). Held ids are looked up in the selected tuples
/// sorted by id, so nothing of the store is sorted.
/// `out` must have capacity state.size().
void SelectStateDominators(const TupleVec& state, const Point& hi,
                           const std::vector<uint64_t>& held_ids,
                           const Rect* counted, ArenaColumns* out);

/// The store-side band kernel's first-pass row test over rows
/// [begin, end) of `rows`: appends to out[*n] each row inside
/// `constraint` (every row when null).
void CollectRowCandidates(const store::FlatStore& rows, uint32_t begin,
                          uint32_t end, const Rect* constraint,
                          uint32_t* out, size_t* n);

/// The store-side band kernel's second pass: the candidates (rows of
/// `rows`) that have fewer than `k` dominators among the candidates and
/// `state` together. One forward pass over the candidates in the
/// dominance-compatible order (coordinate sum, lexicographic key, id):
/// each counts its dominators among the running band first, stopping at
/// k, and only a row the band leaves below k counts its state
/// dominators, stopping at k minus its band count. ComputeKSkyband is
/// this pass with an empty state. Exact whenever every store row left
/// out of `cands` has at least k dominators in store ∪ state. Result
/// sorted by id; only the survivors become Tuples. `cands` is
/// reordered.
TupleVec BandOfCandidates(const store::FlatStore& rows, uint32_t* cands,
                          size_t n, size_t k, const ArenaColumns& state);

/// Selects up to `max_count` tuples with the smallest coordinate sums —
/// the only candidates able to dominate whole regions. Used to bound the
/// per-link dominance tests of the distributed skyline methods; pruning
/// with a subset is sound (never prunes more than the full set would).
TupleVec SelectDominators(const TupleVec& sky, size_t max_count);

/// Returns the k highest scoring tuples under `score_of` (higher first),
/// deterministic tie-break by id. Runs a bounded branch-light queue
/// (store::BoundedTopK) over the candidates instead of copy-and-full-sort.
template <typename ScoreFn>
TupleVec SelectTopK(TupleVec tuples, const ScoreFn& score_of, size_t k);

// ---------------------------------------------------------------------------
// Implementation details only below here.
// ---------------------------------------------------------------------------

template <typename ScoreFn>
TupleVec SelectTopK(TupleVec tuples, const ScoreFn& score_of, size_t k) {
  if (k == 0 || tuples.empty()) return {};
  store::BoundedTopK queue(k);
  LocalKernelCounters().tuples_scanned += tuples.size();
  for (size_t i = 0; i < tuples.size(); ++i) {
    queue.Insert(score_of(tuples[i].key), tuples[i].id,
                 static_cast<uint32_t>(i));
  }
  TupleVec out;
  out.reserve(queue.size());
  for (const store::BoundedTopK::Entry& e : queue.SortedDescending()) {
    out.push_back(std::move(tuples[e.payload]));
  }
  return out;
}

}  // namespace ripple

#endif  // RIPPLE_STORE_LOCAL_ALGOS_H_
