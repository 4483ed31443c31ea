#ifndef RIPPLE_STORE_LOCAL_ALGOS_H_
#define RIPPLE_STORE_LOCAL_ALGOS_H_

#include <algorithm>
#include <utility>

#include "common/kernel_counters.h"
#include "store/bounded_topk.h"
#include "store/tuple.h"

namespace ripple {

/// Computes the k-skyband: the tuples dominated (Pareto, min-is-better)
/// by fewer than `k` others. Deterministic: the result is sorted by tuple
/// id, and duplicate ids are collapsed to one occurrence. This is the
/// structure SPEERTO precomputes per peer (paper, Section 2.1) and the one
/// local primitive behind the skyline and skyband policies.
///
/// One forward pass in the dominance-compatible order (coordinate sum,
/// lexicographic key, id) — every dominator precedes what it dominates,
/// even when floating-point sums tie — counts each candidate's dominators
/// among the running band with CountDominatorsColumns, stopping at `k`.
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

/// Merges two sets that are EACH already skylines (mutually non-dominated
/// within themselves) into the skyline of their union, using only
/// cross-dominance checks — O(|a| * |b|) instead of re-running the full
/// computation over the union. Tuples present in both inputs (by id) are
/// kept once. Result sorted by id. This is the work-horse of distributed
/// skyline state maintenance, where every incoming state is itself a
/// skyline; at d >= 8, where skylines span half the dataset, the full
/// recomputation would be quadratic in the data size per peer. The
/// cross-dominance tests are CountDominatorsColumns calls with limit 1.
TupleVec MergeSkylines(TupleVec a, const TupleVec& b);

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
