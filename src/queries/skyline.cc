#include "queries/skyline.h"

#include <algorithm>

namespace ripple {

SkylinePolicy::LocalState SkylinePolicy::ComputeLocalState(
    const LocalStore& store, const Query& q, const GlobalState& g) const {
  // Lines 1-3 in one store pass: the local skyline (over the constraint
  // box, if any) minus what the received state dominates. A local
  // skyline tuple survives the merge with g exactly when no g tuple
  // dominates it, so this is the 1-band of store ∪ g restricted to the
  // store.
  LocalState l;
  l.tuples = store.Skyband(g.tuples, 1,
                           q.constraint.has_value() ? &*q.constraint : nullptr);
  return l;
}

SkylinePolicy::GlobalState SkylinePolicy::ComputeGlobalState(
    const Query&, const GlobalState& g, const LocalState& l) const {
  GlobalState out;
  out.tuples = MergeSkylines(l.tuples, g.tuples);
  // Refresh the bounded dominator subset: the min-sum tuples are the only
  // ones that can dominate whole regions.
  out.dominators = SelectDominators(out.tuples,
                                    SkylineState::kMaxDominators);
  return out;
}

void SkylinePolicy::MergeLocalStates(
    const Query&, LocalState* mine,
    const std::vector<LocalState>& received) const {
  TupleVec merged = std::move(mine->tuples);
  for (const LocalState& s : received) {
    merged = MergeSkylines(std::move(merged), s.tuples);
  }
  mine->tuples = std::move(merged);
}

SkylinePolicy::Answer SkylinePolicy::ComputeLocalAnswer(
    const LocalStore& store, const Query&, const LocalState& l) const {
  // Algorithm 12: the *local* tuples among the state. After slow-phase
  // merges the state may contain remote tuples; only tuples this peer
  // stores are its contribution to the answer.
  Answer a;
  for (const Tuple& t : l.tuples) {
    if (store.ContainsId(t.id)) a.push_back(t);
  }
  return a;
}

void SkylinePolicy::MergeAnswer(Answer* acc, Answer&& local,
                                const Query&) const {
  // Every per-peer contribution is itself mutually non-dominated, so the
  // accumulator can stay a skyline throughout.
  *acc = MergeSkylines(std::move(*acc), local);
}

void SkylinePolicy::FinalizeAnswer(Answer* acc, const Query&) const {
  std::sort(acc->begin(), acc->end(), TupleIdLess());
}

}  // namespace ripple
