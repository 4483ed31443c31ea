// The centralized oracle every distributed answer is checked against.

#ifndef RIPPLEBENCH_ORACLE_H_
#define RIPPLEBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "queries/range.h"
#include "queries/skyband.h"
#include "queries/skyline.h"
#include "queries/topk.h"
#include "store/tuple.h"

namespace ripplebench {

/// Exact answers over the full current tuple set, computed with the
/// library's centralized primitives: SelectTopK under the query's scorer,
/// ComputeSkyline, ComputeKSkyband and the range predicate. Answers are
/// returned as ascending tuple ids.
class Oracle {
 public:
  explicit Oracle(const ripple::TupleVec& tuples);

  /// Adds freshly ingested tuples to the data set.
  void Append(const ripple::TupleVec& batch);

  std::vector<uint64_t> TopK(const ripple::TopKQuery& q);
  std::vector<uint64_t> Skyline();
  std::vector<uint64_t> Skyband(size_t band);
  std::vector<uint64_t> Range(const ripple::RangeQuery& q) const;

 private:
  ripple::TupleVec tuples_;
  std::vector<std::vector<double>> cols_;
  std::vector<const double*> col_ptrs_;
  std::vector<double> scores_;  // TopK's scratch, kept across calls
  /// Cached over the current data. Appending keeps them exact without a
  /// full recomputation: a tuple dominated before an append stays
  /// dominated, so skyline(S + B) = skyline(skyline(S) + B), and likewise
  /// for the k-skyband.
  std::optional<ripple::TupleVec> skyline_;
  std::map<size_t, ripple::TupleVec> skyband_;
};

/// Ascending ids of an answer, the form the oracle answers in.
std::vector<uint64_t> AnswerIds(const ripple::TupleVec& answer);

}  // namespace ripplebench

#endif  // RIPPLEBENCH_ORACLE_H_
