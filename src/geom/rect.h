#ifndef RIPPLE_GEOM_RECT_H_
#define RIPPLE_GEOM_RECT_H_

#include <algorithm>
#include <string>

#include "geom/point.h"

namespace ripple {

/// An axis-aligned hyper-rectangle [lo, hi] in a d-dimensional domain.
///
/// Rects represent peer zones, MIDAS sibling-subtree regions and RIPPLE
/// restriction areas. Intervals are treated as closed on both ends for
/// geometric bound computations; zone ownership uses half-open semantics
/// via ContainsHalfOpen so that zones partition the domain exactly.
class Rect {
 public:
  Rect() = default;

  /// Requires lo.dims() == hi.dims() and lo <= hi componentwise.
  Rect(const Point& lo, const Point& hi);

  /// The unit hyper-cube [0,1]^d, the paper's default domain.
  static Rect Unit(int dims);

  int dims() const { return lo_.dims(); }
  const Point& lo() const { return lo_; }
  const Point& hi() const { return hi_; }

  /// Closed-interval membership test.
  bool Contains(const Point& p) const;

  /// Half-open membership: lo <= p < hi, except that the upper face is
  /// inclusive along dimensions where hi equals the domain boundary given
  /// by `domain`. Zones tested this way tile the domain with no overlap.
  bool ContainsHalfOpen(const Point& p, const Rect& domain) const;

  /// True when the closed rectangles share at least one point.
  bool Intersects(const Rect& other) const;

  /// True when `other` lies entirely inside *this (closed semantics).
  bool Covers(const Rect& other) const;

  /// The intersection rectangle; valid only when Intersects(other).
  Rect Intersection(const Rect& other) const;

  /// True when some edge has zero length, i.e. the rect has no volume.
  bool Degenerate() const;

  /// Writes the intersection of `a` and `b` into `*out` and returns true
  /// when it has volume; returns false at the first dimension whose
  /// overlap is empty or a single value, leaving `*out` partly written.
  /// The same test as a.Intersects(b) && !a.Intersection(b).Degenerate(),
  /// with no temporary.
  static bool CutInto(const Rect& a, const Rect& b, Rect* out) {
    const int dims = a.dims();
    out->lo_.SetDims(dims);
    out->hi_.SetDims(dims);
    for (int i = 0; i < dims; ++i) {
      const double lo = std::max(a.lo_[i], b.lo_[i]);
      const double hi = std::min(a.hi_[i], b.hi_[i]);
      if (!(lo < hi)) return false;
      out->lo_[i] = lo;
      out->hi_[i] = hi;
    }
    return true;
  }

  /// Product of edge lengths.
  double Volume() const;

  /// Center point.
  Point Center() const;

  /// Splits into (lower, upper) halves at `value` along `dim`.
  /// Requires lo()[dim] <= value <= hi()[dim].
  std::pair<Rect, Rect> Split(int dim, double value) const;

  /// Minimum distance from `p` to any point of the rect (0 when inside).
  double MinDist(const Point& p, Norm norm) const;

  /// Maximum distance from `p` to any point of the rect.
  double MaxDist(const Point& p, Norm norm) const;

  /// The corner of the rect closest to / farthest from `p`.
  Point ClosestPointTo(const Point& p) const;

  /// "[lo .. hi]".
  std::string ToString() const;

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }
  friend bool operator!=(const Rect& a, const Rect& b) { return !(a == b); }

 private:
  Point lo_;
  Point hi_;
};

/// Uniform "iterate the rectangles of an area" protocol used by query
/// policies to compute bounds over overlay regions. A Rect is its own
/// single-rectangle area; composite areas (e.g. Chord arcs) provide their
/// own overload decomposing into rectangles.
template <typename F>
void ForEachRect(const Rect& area, F&& fn) {
  fn(area);
}

}  // namespace ripple

#endif  // RIPPLE_GEOM_RECT_H_
