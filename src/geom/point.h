#ifndef RIPPLE_GEOM_POINT_H_
#define RIPPLE_GEOM_POINT_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "common/check.h"

namespace ripple {

/// Maximum dimensionality supported by the library. The paper evaluates
/// d = 2..10; fixed inline storage keeps tuples allocation-free.
inline constexpr int kMaxDims = 10;

/// A point in a d-dimensional domain, d <= kMaxDims. Value type with inline
/// storage; dimensionality is a runtime property checked on access.
class Point {
 public:
  /// A zero-dimensional point; usable only after SetDims or assignment.
  Point() = default;

  /// A point at the origin of a d-dimensional space.
  explicit Point(int dims) : dims_(static_cast<uint8_t>(dims)) {
    RIPPLE_CHECK(dims >= 0 && dims <= kMaxDims);
    coords_.fill(0.0);
  }

  /// Point{0.3, 0.7} style construction.
  Point(std::initializer_list<double> values) {
    RIPPLE_CHECK(values.size() <= static_cast<size_t>(kMaxDims));
    dims_ = static_cast<uint8_t>(values.size());
    int i = 0;
    for (double v : values) coords_[i++] = v;
  }

  int dims() const { return dims_; }
  /// Sets the dimensionality, keeping the stored coordinates: for a
  /// caller about to overwrite every one of them.
  void SetDims(int dims) {
    RIPPLE_DCHECK(dims >= 0 && dims <= kMaxDims);
    dims_ = static_cast<uint8_t>(dims);
  }

  double operator[](int i) const {
    RIPPLE_DCHECK(i >= 0 && i < dims_);
    return coords_[i];
  }
  double& operator[](int i) {
    RIPPLE_DCHECK(i >= 0 && i < dims_);
    return coords_[i];
  }

  /// Fills every coordinate with `value`.
  void Fill(double value) {
    for (int i = 0; i < dims_; ++i) coords_[i] = value;
  }

  /// "(x0, x1, ...)" with 6 significant digits.
  std::string ToString() const;

  friend bool operator==(const Point& a, const Point& b) {
    if (a.dims_ != b.dims_) return false;
    for (int i = 0; i < a.dims_; ++i) {
      if (a.coords_[i] != b.coords_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const Point& a, const Point& b) { return !(a == b); }

 private:
  std::array<double, kMaxDims> coords_{};
  uint8_t dims_ = 0;
};

/// Lp distances between equal-dimensional points.
double L1Distance(const Point& a, const Point& b);
double L2Distance(const Point& a, const Point& b);
double L2DistanceSquared(const Point& a, const Point& b);
double LInfDistance(const Point& a, const Point& b);

/// Distance norms selectable at runtime (the paper uses L1 for the
/// MIRFLICKR edge-histogram features and L2-style geometry elsewhere).
enum class Norm { kL1, kL2, kLInf };

/// Distance between points under the selected norm.
double Distance(const Point& a, const Point& b, Norm norm);

}  // namespace ripple

#endif  // RIPPLE_GEOM_POINT_H_
