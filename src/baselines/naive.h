#ifndef RIPPLE_BASELINES_NAIVE_H_
#define RIPPLE_BASELINES_NAIVE_H_

#include <vector>

#include "queries/topk.h"
#include "ripple/policy.h"

namespace ripple {

/// The naive broadcast strategy of the paper's introduction: flood the
/// query to the entire network; every peer transmits its local top-k
/// (using only local knowledge, nothing can be pruned) and the initiator
/// merges. Implemented as a RIPPLE policy with no state and no pruning and
/// executed with r = 0, which makes the engine perform exactly a broadcast
/// along the overlay's partition tree with diameter-optimal latency.
class NaiveTopKPolicy {
 public:
  using Query = TopKQuery;
  struct Empty {};
  using LocalState = Empty;
  using GlobalState = Empty;
  using Answer = TupleVec;

  GlobalState InitialGlobalState(const Query&) const { return {}; }
  LocalState ComputeLocalState(const LocalStore&, const Query&,
                               const GlobalState&) const {
    return {};
  }
  GlobalState ComputeGlobalState(const Query&, const GlobalState&,
                                 const LocalState&) const {
    return {};
  }
  void MergeLocalStates(const Query&, LocalState*,
                        const std::vector<LocalState>&) const {}

  /// Each peer ships its local top-k — the k-tuples-per-peer overhead the
  /// paper calls out.
  Answer ComputeLocalAnswer(const LocalStore& store, const Query& q,
                            const LocalState&) const {
    return store.TopKAbove(*q.scorer, q.k,
                           -std::numeric_limits<double>::infinity());
  }

  template <typename Area>
  bool IsLinkRelevant(const Query&, const GlobalState&, const Area&) const {
    return true;  // broadcast: nothing is ever pruned
  }
  template <typename Area>
  double LinkPriority(const Query&, const Area&) const {
    return 0.0;
  }

  size_t StateTupleCount(const LocalState&) const { return 0; }
  size_t GlobalStateTupleCount(const GlobalState&) const { return 0; }
  size_t AnswerTupleCount(const Answer& a) const { return a.size(); }

  void MergeAnswer(Answer* acc, Answer&& local, const Query&) const {
    acc->insert(acc->end(), std::make_move_iterator(local.begin()),
                std::make_move_iterator(local.end()));
  }
  void FinalizeAnswer(Answer* acc, const Query& q) const {
    *acc = SelectTopK(std::move(*acc),
                      [&](const Point& p) { return q.scorer->Score(p); },
                      q.k);
  }

  // Wire codecs: the query is a TopKQuery — reuse its codec so both
  // policies put identical query bytes on the wire; states are empty.
  void EncodeQuery(const Query& q, wire::Buffer* buf) const {
    TopKPolicy{}.EncodeQuery(q, buf);
  }
  bool DecodeQuery(wire::Reader* r, Query* out) const {
    return TopKPolicy{}.DecodeQuery(r, out);
  }
  void EncodeState(const Empty&, wire::Buffer*) const {}
  bool DecodeState(wire::Reader* r, Empty*) const { return r->ok(); }
  size_t StateWireSize(const Empty&) const { return 0; }
  void EncodeAnswer(const Answer& a, wire::Buffer* buf) const {
    EncodeTupleVec(a, buf);
  }
  bool DecodeAnswer(wire::Reader* r, Answer* out) const {
    return DecodeTupleVec(r, out);
  }
  size_t AnswerWireSize(const Answer& a) const { return TupleVecWireSize(a); }
};

static_assert(QueryPolicy<NaiveTopKPolicy, Rect>);

}  // namespace ripple

#endif  // RIPPLE_BASELINES_NAIVE_H_
