#ifndef RIPPLE_TESTS_ORACLE_ORACLE_H_
#define RIPPLE_TESTS_ORACLE_ORACLE_H_

#include <functional>

#include "store/tuple.h"

/// Definition-level answers for the per-peer kernels, linked only into
/// tests and benches. Each function is its textbook definition — pairwise
/// dominance counts, a full sort — with no pre-sort, no pruning and no
/// column kernel, so it shares none of the library's shortcuts. Results
/// are sorted by id (top-k: by rank) and duplicate ids are kept once.
namespace ripple::oracle {

/// Tuples dominated by fewer than `k` others.
TupleVec Skyband(const TupleVec& tuples, size_t k);

/// The 1-skyband.
TupleVec Skyline(const TupleVec& tuples);

/// The k-skyband of the union of `a` and `b`, a tuple in both counted
/// once.
TupleVec MergeBands(const TupleVec& a, const TupleVec& b, size_t k);

/// The first `k` tuples under (score descending, id ascending).
TupleVec TopK(TupleVec tuples,
              const std::function<double(const Point&)>& score, size_t k);

}  // namespace ripple::oracle

#endif  // RIPPLE_TESTS_ORACLE_ORACLE_H_
