#ifndef RIPPLE_GEOM_DOMINANCE_H_
#define RIPPLE_GEOM_DOMINANCE_H_

#include <cstddef>

#include "geom/point.h"
#include "geom/rect.h"

namespace ripple {

/// Pareto dominance with min-is-better semantics on every attribute,
/// matching the paper's Section 5 convention ("lower values are better").
///
/// `a` dominates `b` iff a <= b componentwise and a < b in at least one
/// component.
bool Dominates(const Point& a, const Point& b);

/// True when point `s` dominates *every* point of the rectangle `r`,
/// i.e. s dominates the rect's lower corner (Algorithm 14's region test:
/// a region is prunable when some skyline point dominates all tuples it
/// could possibly contain).
bool DominatesRect(const Point& s, const Rect& r);

/// True when *some* point of `r` could dominate `p` — equivalently, the
/// rect's lower corner dominates `p`. Used to decide whether a region can
/// still contribute to the skyline given current results.
bool RectMayDominate(const Rect& r, const Point& p);

/// Column-wise dominance-counting kernel: how many of the `m` points
/// stored column-wise in `cols` (dims column arrays of m values each)
/// dominate `p`, returning as soon as the count reaches `limit` (>= 1;
/// limit 1 is the "is p dominated?" test). The first (possibly partial)
/// block is scanned row-at-a-time with short-circuit — skyband callers
/// keep candidates in the dominance-compatible order (coordinate sum,
/// lexicographic key, id), so the strongest dominators sit up front.
/// The remaining rows run the branch-light path: per block,
/// a byte mask le[i] (<= everywhere so far) is narrowed one column at a
/// time with straight-line compares the compiler can auto-vectorize, a
/// block is abandoned as soon as no lane survives the prefix, and
/// strictness is resolved scalar for the rare all-<= survivors. The
/// dominance_cmps kernel counter advances by the rows of every block
/// actually tested, which makes it independent of WHERE in a block the
/// limit-reaching dominator sits: exact-gateable given the same data.
size_t CountDominatorsColumns(const double* const* cols, int dims, size_t m,
                              const Point& p, size_t limit);

}  // namespace ripple

#endif  // RIPPLE_GEOM_DOMINANCE_H_
