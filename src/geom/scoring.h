#ifndef RIPPLE_GEOM_SCORING_H_
#define RIPPLE_GEOM_SCORING_H_

#include <array>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>

#include "geom/point.h"
#include "geom/rect.h"

namespace ripple {

/// A monotone/unimodal scoring function for top-k queries (paper, Section 4).
/// Scores are "higher is better". Implementations must provide a sound upper
/// bound over any rectangle: UpperBound(r) >= Score(p) for every p in r —
/// this is the paper's f+ used by isLinkRelevant (Alg. 8) and comp (Alg. 9).
class Scorer {
 public:
  virtual ~Scorer() = default;

  /// Score of a single tuple key.
  virtual double Score(const Point& p) const = 0;

  /// Batched scoring over n rows stored column-wise (`cols` is dims
  /// column arrays of n values each; out receives n scores). The contract
  /// is BIT-IDENTICAL results to calling Score on each row's point —
  /// overrides must accumulate per element in the same operation order as
  /// their scalar Score, so the distributed answers cannot drift when the
  /// flat paths switch to block evaluation. The base implementation
  /// materializes one point per row and delegates to Score.
  virtual void ScoreBlock(const double* const* cols, int dims, size_t n,
                          double* out) const;

  /// f+: upper bound of Score over the rectangle.
  virtual double UpperBound(const Rect& r) const = 0;

  /// The domain point maximizing the score (unimodal functions have exactly
  /// one). Used to seed query processing near the best tuples.
  virtual Point Peak(const Rect& domain) const = 0;

  virtual std::string ToString() const = 0;
};

/// Weighted linear aggregation: Score(p) = sum_i w_i * p_i. Monotone for
/// non-negative weights; the paper's NBA top-k "aggregates individual
/// statistics by the scoring function".
class LinearScorer : public Scorer {
 public:
  /// Requires 1 <= weights.size() <= kMaxDims. The weights are kept
  /// inline, so a scorer is one allocation when it lives on the heap.
  explicit LinearScorer(std::span<const double> weights);
  explicit LinearScorer(std::initializer_list<double> weights)
      : LinearScorer(std::span(weights.begin(), weights.size())) {}

  double Score(const Point& p) const override;
  void ScoreBlock(const double* const* cols, int dims, size_t n,
                  double* out) const override;
  double UpperBound(const Rect& r) const override;
  Point Peak(const Rect& domain) const override;
  std::string ToString() const override;

  std::span<const double> weights() const {
    return {weights_.data(), static_cast<size_t>(dims_)};
  }

 private:
  std::array<double, kMaxDims> weights_{};
  int dims_ = 0;
};

/// Unimodal "closeness to an anchor" score: Score(p) = -dist(p, anchor).
/// Its unique maximum is at the anchor, matching the paper's definition of
/// a unimodal multivariate function with a single local maximum.
class NearestScorer : public Scorer {
 public:
  NearestScorer(const Point& anchor, Norm norm);

  double Score(const Point& p) const override;
  void ScoreBlock(const double* const* cols, int dims, size_t n,
                  double* out) const override;
  double UpperBound(const Rect& r) const override;
  Point Peak(const Rect& domain) const override;
  std::string ToString() const override;

  const Point& anchor() const { return anchor_; }
  Norm norm() const { return norm_; }

 private:
  Point anchor_;
  Norm norm_;
};

}  // namespace ripple

#endif  // RIPPLE_GEOM_SCORING_H_
