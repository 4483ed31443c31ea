#include "geom/scoring.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace ripple {

void Scorer::ScoreBlock(const double* const* cols, int dims, size_t n,
                        double* out) const {
  Point p(dims);
  for (size_t i = 0; i < n; ++i) {
    for (int c = 0; c < dims; ++c) p[c] = cols[c][i];
    out[i] = Score(p);
  }
}

LinearScorer::LinearScorer(std::span<const double> weights)
    : dims_(static_cast<int>(weights.size())) {
  RIPPLE_CHECK(!weights.empty());
  RIPPLE_CHECK(weights.size() <= static_cast<size_t>(kMaxDims));
  std::copy(weights.begin(), weights.end(), weights_.begin());
}

double LinearScorer::Score(const Point& p) const {
  RIPPLE_DCHECK(p.dims() == dims_);
  double s = 0.0;
  for (int i = 0; i < dims_; ++i) s += weights_[i] * p[i];
  return s;
}

void LinearScorer::ScoreBlock(const double* const* cols, int dims, size_t n,
                              double* out) const {
  RIPPLE_DCHECK(dims == dims_);
  (void)dims;
  // Column-outer accumulation: per element the additions happen in
  // dimension order, the exact chain scalar Score builds — required for
  // the bit-identity contract.
  for (size_t i = 0; i < n; ++i) out[i] = 0.0;
  for (int c = 0; c < dims_; ++c) {
    const double w = weights_[c];
    const double* col = cols[c];
    for (size_t i = 0; i < n; ++i) out[i] += w * col[i];
  }
}

double LinearScorer::UpperBound(const Rect& r) const {
  RIPPLE_DCHECK(r.dims() == dims_);
  double s = 0.0;
  for (int d = 0; d < dims_; ++d) {
    s += weights_[d] * (weights_[d] >= 0 ? r.hi()[d] : r.lo()[d]);
  }
  return s;
}

Point LinearScorer::Peak(const Rect& domain) const {
  Point p(domain.dims());
  for (int d = 0; d < dims_; ++d) {
    p[d] = weights_[d] >= 0 ? domain.hi()[d] : domain.lo()[d];
  }
  return p;
}

std::string LinearScorer::ToString() const {
  std::string out = "linear(";
  char buf[32];
  for (int i = 0; i < dims_; ++i) {
    std::snprintf(buf, sizeof(buf), "%.3g", weights_[i]);
    if (i > 0) out += ", ";
    out += buf;
  }
  return out + ")";
}

NearestScorer::NearestScorer(const Point& anchor, Norm norm)
    : anchor_(anchor), norm_(norm) {}

double NearestScorer::Score(const Point& p) const {
  return -Distance(p, anchor_, norm_);
}

void NearestScorer::ScoreBlock(const double* const* cols, int dims, size_t n,
                               double* out) const {
  RIPPLE_DCHECK(dims == anchor_.dims());
  // Mirrors the per-norm accumulation order of Distance() exactly
  // (dimension-ordered additions / maxes), then negates — the same chain
  // scalar Score(-Distance) produces, bit for bit.
  switch (norm_) {
    case Norm::kL1:
      for (size_t i = 0; i < n; ++i) out[i] = 0.0;
      for (int c = 0; c < dims; ++c) {
        const double a = anchor_[c];
        const double* col = cols[c];
        for (size_t i = 0; i < n; ++i) out[i] += std::fabs(col[i] - a);
      }
      for (size_t i = 0; i < n; ++i) out[i] = -out[i];
      return;
    case Norm::kL2:
      for (size_t i = 0; i < n; ++i) out[i] = 0.0;
      for (int c = 0; c < dims; ++c) {
        const double a = anchor_[c];
        const double* col = cols[c];
        for (size_t i = 0; i < n; ++i) {
          const double d = col[i] - a;
          out[i] += d * d;
        }
      }
      for (size_t i = 0; i < n; ++i) out[i] = -std::sqrt(out[i]);
      return;
    case Norm::kLInf:
      for (size_t i = 0; i < n; ++i) out[i] = 0.0;
      for (int c = 0; c < dims; ++c) {
        const double a = anchor_[c];
        const double* col = cols[c];
        for (size_t i = 0; i < n; ++i) {
          out[i] = std::max(out[i], std::fabs(col[i] - a));
        }
      }
      for (size_t i = 0; i < n; ++i) out[i] = -out[i];
      return;
  }
}

double NearestScorer::UpperBound(const Rect& r) const {
  return -r.MinDist(anchor_, norm_);
}

Point NearestScorer::Peak(const Rect& domain) const {
  return domain.ClosestPointTo(anchor_);
}

std::string NearestScorer::ToString() const {
  return "nearest" + anchor_.ToString();
}

}  // namespace ripple
