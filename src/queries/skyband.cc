#include "queries/skyband.h"

#include <algorithm>

namespace ripple {

SkybandPolicy::LocalState SkybandPolicy::ComputeLocalState(
    const LocalStore& store, const Query& q, const GlobalState& g) const {
  // The local band members not already disqualified by the global state:
  // every store dominator of such a tuple is itself in the local band, so
  // this is the band of store ∪ g restricted to the store.
  LocalState l;
  l.tuples = store.Skyband(g.tuples, q.band);
  return l;
}

SkybandPolicy::GlobalState SkybandPolicy::ComputeGlobalState(
    const Query& q, const GlobalState& g, const LocalState& l) const {
  TupleVec merged = g.tuples;
  merged.insert(merged.end(), l.tuples.begin(), l.tuples.end());
  GlobalState out;
  out.tuples = ComputeKSkyband(std::move(merged), q.band);
  out.dominators =
      SelectDominators(out.tuples, SkybandState::kMaxDominators);
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

SkybandPolicy::Answer SkybandPolicy::ComputeLocalAnswer(
    const LocalStore& store, const Query&, const LocalState& l) const {
  Answer a;
  for (const Tuple& t : l.tuples) {
    if (store.ContainsId(t.id)) a.push_back(t);
  }
  return a;
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
