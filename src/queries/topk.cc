#include "queries/topk.h"

#include <algorithm>
#include <array>
#include <span>

#include "common/arena.h"
#include "common/check.h"

namespace ripple {

TopKPolicy::LocalState TopKPolicy::ComputeLocalState(
    const LocalStore& store, const Query& q, const GlobalState& g) const {
  RIPPLE_DCHECK(q.scorer != nullptr);
  // The state is (how many tuples, their lowest score): the store counts
  // both off its selection, and no tuple is built.
  // Line 1: up to k local tuples scoring at or above the received
  // threshold.
  const LocalStore::TopKCount above = store.CountTopKAbove(*q.scorer, q.k,
                                                           g.tau);
  LocalState l{above.count, above.lowest};
  // Lines 2-3: if the global goal of k tuples is still unmet, add the
  // highest ranking remaining local tuples.
  if (g.m + above.count < q.k) {
    const LocalStore::TopKCount below =
        store.CountBestBelow(*q.scorer, q.k - g.m - above.count, g.tau);
    l.m += below.count;
    l.tau = std::min(l.tau, below.lowest);
  }
  return l;
}

namespace {

/// The Algorithm 7 aggregation: the tightest threshold guaranteeing >= k
/// tuples, found by scanning states in descending threshold order. Each
/// input state is a true claim "m tuples with score >= tau exist", so the
/// output is one too.
TopKState MergeStates(std::span<TopKState> all, size_t k) {
  std::sort(all.begin(), all.end(), [](const TopKState& a,
                                       const TopKState& b) {
    return a.tau > b.tau;
  });
  TopKState merged;
  for (const TopKState& s : all) {
    merged.m += s.m;
    merged.tau = s.tau;
    if (merged.m >= k) break;
  }
  return merged;
}

}  // namespace

TopKPolicy::GlobalState TopKPolicy::ComputeGlobalState(
    const Query& q, const GlobalState& g, const LocalState& l) const {
  // Algorithm 5 as printed combines with (m_G + m_L, min(tau_G, tau_L)),
  // which can only weaken the threshold along a forwarding path and makes
  // the Figure 4 congestion levels unreachable. We combine with the
  // paper's own Algorithm 7 rule instead — the same aggregation
  // updateLocalState uses — which tightens the threshold whenever either
  // side alone already witnesses k tuples (deviation documented in
  // DESIGN.md).
  std::array<TopKState, 2> both{g, l};
  return MergeStates(both, q.k);
}

void TopKPolicy::MergeLocalStates(
    const Query& q, LocalState* mine,
    const std::vector<LocalState>& received) const {
  // The states to sort are copied into the per-query arena.
  ArenaScope scope(&PerQueryArena());
  const std::span<TopKState> all(
      PerQueryArena().AllocateArray<TopKState>(received.size() + 1),
      received.size() + 1);
  all[0] = *mine;
  std::copy(received.begin(), received.end(), all.begin() + 1);
  *mine = MergeStates(all, q.k);
}

TopKPolicy::Answer TopKPolicy::ComputeLocalAnswer(const LocalStore& store,
                                                  const Query& q,
                                                  const LocalState& l) const {
  if (l.m == 0) return {};
  // Tuples at or above the local threshold; tau is the score of an actual
  // tuple, so >= keeps the witness itself.
  return store.AllAtLeast(*q.scorer, l.tau);
}

void TopKPolicy::MergeAnswer(Answer* acc, Answer&& local,
                             const Query&) const {
  acc->insert(acc->end(), std::make_move_iterator(local.begin()),
              std::make_move_iterator(local.end()));
}

void TopKPolicy::FinalizeAnswer(Answer* acc, const Query& q) const {
  *acc = SelectTopK(std::move(*acc),
                    [&](const Point& p) { return q.scorer->Score(p); }, q.k);
}

}  // namespace ripple
