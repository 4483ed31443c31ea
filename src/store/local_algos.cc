#include "store/local_algos.h"

#include <algorithm>
#include <numeric>

#include "common/arena.h"
#include "geom/dominance.h"

namespace ripple {

namespace {

/// Coordinate sum with the accumulation order every caller shares
/// (dimension-ascending adds), so precomputed sums compare exactly like
/// sums recomputed inside a comparator.
double SumOf(const Tuple& t) {
  double s = 0.0;
  for (int i = 0; i < t.key.dims(); ++i) s += t.key[i];
  return s;
}

/// Drops duplicate ids (merged states may repeat tuples) and returns the
/// remaining tuples in dominance-compatible order: ascending coordinate
/// sum, then lexicographic key, then id. If a dominates b then fl-sum(a)
/// <= fl-sum(b) (every add rounds monotonically), and on equal sums a is
/// lexicographically smaller — so every dominator precedes what it
/// dominates, which is what lets one forward pass count dominators.
TupleVec DedupAndDominanceSort(TupleVec tuples) {
  std::sort(tuples.begin(), tuples.end(), TupleIdLess());
  tuples.erase(std::unique(tuples.begin(), tuples.end(),
                           [](const Tuple& a, const Tuple& b) {
                             return a.id == b.id;
                           }),
               tuples.end());
  // Sorting (sum, row) pairs keeps the hot comparisons on contiguous
  // keys; rows are in ascending id order, so the row breaks full ties.
  struct SortKey {
    double sum;
    uint32_t row;
  };
  std::vector<SortKey> keys(tuples.size());
  for (uint32_t i = 0; i < keys.size(); ++i) {
    keys[i] = {SumOf(tuples[i]), i};
  }
  auto lex_then_row_less = [&](uint32_t a, uint32_t b) {
    for (int c = 0; c < tuples[a].key.dims(); ++c) {
      const double x = tuples[a].key[c], y = tuples[b].key[c];
      if (x != y) return x < y;
    }
    return a < b;
  };
  std::sort(keys.begin(), keys.end(),
            [&](const SortKey& a, const SortKey& b) {
              return a.sum < b.sum ||
                     (a.sum == b.sum && lex_then_row_less(a.row, b.row));
            });
  // Apply the permutation in place (cycle-walking, O(n) moves): same
  // result as rebuilding `sorted[i] = tuples[keys[i].row]` without a
  // second tuple buffer.
  for (uint32_t i = 0; i < keys.size(); ++i) {
    if (keys[i].row == i) continue;
    Tuple tmp = std::move(tuples[i]);
    uint32_t cur = i;
    while (keys[cur].row != i) {
      const uint32_t nxt = keys[cur].row;
      tuples[cur] = std::move(tuples[nxt]);
      keys[cur].row = cur;
      cur = nxt;
    }
    tuples[cur] = std::move(tmp);
    keys[cur].row = cur;
  }
  return tuples;
}

/// A growable structure-of-arrays view over a running band (or a merge
/// input), backed by the per-query arena: d column arrays sized for the
/// worst case (every candidate survives), appended to as candidates are
/// accepted.
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

  const double* const* cols() const { return cols_; }
  size_t size() const { return size_; }

 private:
  int dims_;
  size_t size_ = 0;
  double* cols_[kMaxDims] = {};
};

}  // namespace

TupleVec ComputeKSkyband(TupleVec tuples, size_t k) {
  if (tuples.empty() || k == 0) return {};
  TupleVec sorted = DedupAndDominanceSort(std::move(tuples));
  const int dims = sorted[0].key.dims();
  // The running band is held column-wise for the branch-light kernel.
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  ArenaColumns band_cols(&arena, dims, sorted.size());
  TupleVec band;
  KernelCounters& kc = LocalKernelCounters();
  for (Tuple& t : sorted) {
    ++kc.tuples_scanned;
    if (CountDominatorsColumns(band_cols.cols(), dims, band_cols.size(),
                               t.key, k) >= k) {
      continue;
    }
    band_cols.Append(t.key);
    band.push_back(std::move(t));
  }
  std::sort(band.begin(), band.end(), TupleIdLess());
  return band;
}

TupleVec SelectDominators(const TupleVec& sky, size_t max_count) {
  if (sky.size() <= max_count) return sky;
  // Precompute the sums once and select over an index permutation: the
  // comparator sees the exact values the scalar on-the-fly version
  // compared, so the selected set is unchanged.
  std::vector<double> sums(sky.size());
  for (size_t i = 0; i < sky.size(); ++i) sums[i] = SumOf(sky[i]);
  std::vector<uint32_t> order(sky.size());
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + max_count, order.end(),
                   [&](uint32_t a, uint32_t b) { return sums[a] < sums[b]; });
  TupleVec out;
  out.reserve(max_count);
  for (size_t i = 0; i < max_count; ++i) out.push_back(sky[order[i]]);
  return out;
}

TupleVec MergeSkylines(TupleVec a, const TupleVec& b) {
  if (b.empty()) {
    std::sort(a.begin(), a.end(), TupleIdLess());
    return a;
  }
  if (a.empty()) {
    TupleVec out = b;
    std::sort(out.begin(), out.end(), TupleIdLess());
    return out;
  }
  const int dims = a[0].key.dims();
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  ArenaColumns b_cols(&arena, dims, b.size());
  for (const Tuple& t : b) b_cols.Append(t.key);
  KernelCounters& kc = LocalKernelCounters();
  // Survivors of a: not dominated by any b tuple.
  TupleVec out;
  out.reserve(a.size() + b.size());
  for (Tuple& t : a) {
    ++kc.tuples_scanned;
    if (CountDominatorsColumns(b_cols.cols(), dims, b_cols.size(), t.key,
                               1) == 0) {
      out.push_back(std::move(t));
    }
  }
  const size_t a_survivors = out.size();
  // Survivors of b: not dominated by any a tuple. (Testing against all of
  // a equals testing against a's survivors: if a removed a-tuple s
  // dominated t in b, then s's own b-dominator would dominate t by
  // transitivity — impossible, b is mutually non-dominated.) Ids already
  // kept in the a-pass are skipped; duplicated tuples always survive the
  // a-pass, since nothing in b dominates a tuple b itself contains.
  ArenaColumns a_cols(&arena, dims, a.size());
  for (const Tuple& t : a) a_cols.Append(t.key);
  for (const Tuple& t : b) {
    bool skip = false;
    for (size_t i = 0; i < a_survivors; ++i) {
      if (out[i].id == t.id) {
        skip = true;
        break;
      }
    }
    if (skip) continue;
    ++kc.tuples_scanned;
    if (CountDominatorsColumns(a_cols.cols(), dims, a_cols.size(), t.key,
                               1) == 0) {
      out.push_back(t);
    }
  }
  std::sort(out.begin(), out.end(), TupleIdLess());
  return out;
}

}  // namespace ripple
