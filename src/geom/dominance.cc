#include "geom/dominance.h"

#include <algorithm>
#include <cstring>

#include "common/kernel_counters.h"

namespace ripple {

bool Dominates(const Point& a, const Point& b) {
  RIPPLE_DCHECK(a.dims() == b.dims());
  bool strictly_better_somewhere = false;
  for (int i = 0; i < a.dims(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better_somewhere = true;
  }
  return strictly_better_somewhere;
}

bool DominatesRect(const Point& s, const Rect& r) {
  RIPPLE_DCHECK(s.dims() == r.dims());
  // s must be <= the rect's lower corner everywhere, and strictly less in at
  // least one dimension: then for any p in r, s <= lo <= p with strictness
  // carried through, so s dominates every point of the closed rect.
  bool strict = false;
  for (int i = 0; i < s.dims(); ++i) {
    if (s[i] > r.lo()[i]) return false;
    if (s[i] < r.lo()[i]) strict = true;
  }
  return strict;
}

bool RectMayDominate(const Rect& r, const Point& p) {
  RIPPLE_DCHECK(p.dims() == r.dims());
  // The most dominating candidate inside r is its lower corner.
  return Dominates(r.lo(), p);
}

size_t CountDominatorsColumns(const double* const* cols, int dims, size_t m,
                              const Point& p, size_t limit) {
  RIPPLE_DCHECK(p.dims() == dims);
  RIPPLE_DCHECK(limit >= 1);
  constexpr size_t kBlock = 16;
  double pv[kMaxDims];
  for (int c = 0; c < dims; ++c) pv[c] = p[c];
  uint8_t le[kBlock];
  size_t count = 0;
  KernelCounters& kc = LocalKernelCounters();
  // Head block, row-at-a-time with short-circuit: callers keep their
  // candidate sets in dominance-compatible order, so the strongest
  // dominators sit in the first rows and most dominated probes die here
  // after a couple of comparisons. Counter accounting matches the block
  // path (one possibly-partial block, head candidates examined).
  const size_t head = std::min(m, kBlock);
  kc.dominance_cmps += head;
  for (size_t i = 0; i < head; ++i) {
    bool le_all = true;
    bool lt_any = false;
    for (int c = 0; c < dims; ++c) {
      const double v = cols[c][i];
      if (v > pv[c]) {
        le_all = false;
        break;
      }
      lt_any |= v < pv[c];
    }
    if (le_all && lt_any && ++count >= limit) return count;
  }
  for (size_t base = head; base < m; base += kBlock) {
    const size_t n = std::min(kBlock, m - base);
    kc.dominance_cmps += n;
    // Narrow the "every coordinate <= p" mask one column at a time; the
    // inner loop is branch-free and auto-vectorizable. Once no lane
    // survives the prefix, later columns cannot resurrect one.
    std::memset(le, 1, n);
    uint8_t any = 1;
    for (int c = 0; c < dims && any; ++c) {
      const double pc = pv[c];
      const double* col = cols[c] + base;
      any = 0;
      for (size_t i = 0; i < n; ++i) {
        le[i] &= static_cast<uint8_t>(col[i] <= pc);
        any |= le[i];
      }
    }
    if (!any) continue;
    // A survivor is <= p in every dimension, so it dominates p unless it
    // IS p coordinate-for-coordinate. Survivors are rare; resolving the
    // strictness scalar keeps the hot loop to one compare per lane-column.
    for (size_t i = 0; i < n; ++i) {
      if (!le[i]) continue;
      for (int c = 0; c < dims; ++c) {
        if (cols[c][base + i] < pv[c]) {
          if (++count >= limit) return count;
          break;
        }
      }
    }
  }
  return count;
}

}  // namespace ripple
