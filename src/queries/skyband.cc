#include "queries/skyband.h"

#include <iterator>

namespace ripple {

SkybandPolicy::GlobalState SkybandPolicy::ComputeGlobalState(
    const Query& q, const GlobalState& g, const LocalState& l) const {
  TupleVec merged = g.tuples;
  merged.insert(merged.end(), l.tuples.begin(), l.tuples.end());
  GlobalState out;
  out.tuples = ComputeKSkyband(std::move(merged), q.band);
  out.dominators = SelectDominators(out.tuples, kMaxDominators);
  return out;
}

void SkybandPolicy::MergeLocalStates(
    const Query& q, LocalState* mine,
    const std::vector<LocalState>& received) const {
  TupleVec merged = std::move(mine->tuples);
  for (const LocalState& s : received) {
    merged.insert(merged.end(), s.tuples.begin(), s.tuples.end());
  }
  mine->tuples = ComputeKSkyband(std::move(merged), q.band);
}

void SkybandPolicy::MergeAnswer(Answer* acc, Answer&& local,
                                const Query&) const {
  acc->insert(acc->end(), std::make_move_iterator(local.begin()),
              std::make_move_iterator(local.end()));
}

void SkybandPolicy::FinalizeAnswer(Answer* acc, const Query& q) const {
  *acc = ComputeKSkyband(std::move(*acc), q.band);
}

}  // namespace ripple
