#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

#include "common/check.h"
#include "store/local_algos.h"

namespace ripplebench {

using ripple::Point;
using ripple::Tuple;
using ripple::TupleVec;

std::vector<uint64_t> AnswerIds(const TupleVec& answer) {
  std::vector<uint64_t> ids;
  ids.reserve(answer.size());
  for (const Tuple& t : answer) ids.push_back(t.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Oracle::Oracle(const TupleVec& tuples) {
  const int dims = tuples.empty() ? 0 : tuples.front().key.dims();
  cols_.resize(dims);
  Append(tuples);
}

void Oracle::Append(const TupleVec& batch) {
  tuples_.insert(tuples_.end(), batch.begin(), batch.end());
  for (size_t d = 0; d < cols_.size(); ++d) {
    for (const Tuple& t : batch) cols_[d].push_back(t.key[static_cast<int>(d)]);
  }
  if (skyline_.has_value()) {
    TupleVec merged = *skyline_;
    merged.insert(merged.end(), batch.begin(), batch.end());
    skyline_ = ripple::ComputeSkyline(std::move(merged));
  }
  for (auto& [band, members] : skyband_) {
    members.insert(members.end(), batch.begin(), batch.end());
    members = ripple::ComputeKSkyband(std::move(members), band);
  }
}

std::vector<uint64_t> Oracle::TopK(const ripple::TopKQuery& q) {
  // Only exact top-k can be checked by identity.
  RIPPLE_CHECK(q.epsilon == 0.0);
  const size_t n = tuples_.size();
  if (q.k == 0 || n == 0) return {};
  // ScoreBlock is bit-identical to Score, so the k-th best block score is
  // the k-th best score. Every tuple that can be in the answer scores at
  // least that much; SelectTopK over those candidates is SelectTopK over
  // the whole set.
  col_ptrs_.clear();
  for (const auto& c : cols_) col_ptrs_.push_back(c.data());
  scores_.resize(n);
  q.scorer->ScoreBlock(col_ptrs_.data(), static_cast<int>(col_ptrs_.size()),
                       n, scores_.data());
  std::priority_queue<double, std::vector<double>, std::greater<double>> best;
  for (double s : scores_) {
    if (best.size() < q.k) {
      best.push(s);
    } else if (s > best.top()) {
      best.pop();
      best.push(s);
    }
  }
  const double kth = best.top();
  TupleVec candidates;
  for (size_t i = 0; i < n; ++i) {
    if (scores_[i] >= kth) candidates.push_back(tuples_[i]);
  }
  return AnswerIds(ripple::SelectTopK(
      std::move(candidates),
      [&q](const Point& p) { return q.scorer->Score(p); }, q.k));
}

std::vector<uint64_t> Oracle::Skyline() {
  if (!skyline_.has_value()) skyline_ = ripple::ComputeSkyline(tuples_);
  return AnswerIds(*skyline_);
}

std::vector<uint64_t> Oracle::Skyband(size_t band) {
  auto it = skyband_.find(band);
  if (it == skyband_.end()) {
    it = skyband_.emplace(band, ripple::ComputeKSkyband(tuples_, band)).first;
  }
  return AnswerIds(it->second);
}

std::vector<uint64_t> Oracle::Range(const ripple::RangeQuery& q) const {
  // Coordinate-box prefilter (every norm's ball of radius r lies inside
  // the box of half-width r; the slack absorbs rounding), then the
  // query's own predicate.
  const double half_width = q.radius * (1.0 + 1e-9);
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < tuples_.size(); ++i) {
    bool inside = true;
    for (size_t d = 0; d < cols_.size() && inside; ++d) {
      inside = std::abs(cols_[d][i] - q.center[static_cast<int>(d)]) <=
               half_width;
    }
    if (inside && q.Matches(tuples_[i].key)) ids.push_back(tuples_[i].id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace ripplebench
