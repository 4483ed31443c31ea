#ifndef RIPPLE_QUERIES_TOPK_H_
#define RIPPLE_QUERIES_TOPK_H_

#include <limits>
#include <memory>
#include <vector>

#include "geom/scoring.h"
#include "geom/wire.h"
#include "ripple/policy.h"
#include "store/local_algos.h"
#include "store/local_store.h"
#include "store/tuple.h"
#include "store/wire.h"

namespace ripple {

/// A top-k query: the k tuples maximizing `scorer` (paper, Section 4).
///
/// `epsilon` >= 0 enables approximate retrieval in the spirit of KLEE
/// (cited in Section 2.1): regions whose upper bound cannot beat the
/// current threshold by more than epsilon are pruned, so every tuple the
/// exact answer would contain is either returned or within epsilon of the
/// returned k-th score. epsilon = 0 is exact.
struct TopKQuery {
  const Scorer* scorer = nullptr;  // not owned; must outlive the query
  size_t k = 10;
  double epsilon = 0.0;
  /// Set by DecodeQuery: a query decoded off the wire owns its scorer
  /// (scorer == owned_scorer.get()), so it is self-contained. Queries
  /// built in-process leave it null and borrow the caller's scorer.
  std::shared_ptr<const Scorer> owned_scorer;
};

/// Top-k state (m, tau): "m tuples with score above tau have already been
/// retrieved". The neutral state is (0, +inf).
struct TopKState {
  size_t m = 0;
  double tau = std::numeric_limits<double>::infinity();
};

/// RIPPLE policy for top-k queries — the materialization of the abstract
/// functions in Algorithms 4-9. Works over any overlay whose Area offers
/// ForEachRect (f+ over an area is the max of f+ over its rectangles).
class TopKPolicy {
 public:
  using Query = TopKQuery;
  using LocalState = TopKState;
  using GlobalState = TopKState;
  using Answer = TupleVec;

  GlobalState InitialGlobalState(const Query&) const { return TopKState{}; }

  /// Algorithm 4: grab up to k local tuples above the global threshold and,
  /// if the global count still falls short of k, the best of the rest.
  LocalState ComputeLocalState(const LocalStore& store, const Query& q,
                               const GlobalState& g) const;

  /// Algorithm 5: (m_G + m_L, min(tau_G, tau_L)).
  GlobalState ComputeGlobalState(const Query& q, const GlobalState& g,
                                 const LocalState& l) const;

  /// Algorithm 7: the tightest threshold guaranteeing >= k tuples, found by
  /// scanning the states in descending threshold order. Sound only for
  /// states describing disjoint tuple sets (counts add up) — which the
  /// engine guarantees: merged states always come from disjoint subtrees
  /// or the peer's own store.
  void MergeLocalStates(const Query& q, LocalState* mine,
                        const std::vector<LocalState>& received) const;

  /// Algorithm 6: every local tuple scoring at least the local threshold.
  Answer ComputeLocalAnswer(const LocalStore& store, const Query& q,
                            const LocalState& l) const;

  /// Algorithm 8: relevant while fewer than k tuples are known or the area
  /// may contain tuples above the global threshold (f+ >= tau; with
  /// approximation, f+ >= tau + epsilon).
  template <typename Area>
  bool IsLinkRelevant(const Query& q, const GlobalState& g,
                      const Area& area) const {
    if (g.m < q.k) return true;
    return AreaUpperBound(q, area) >= g.tau + q.epsilon;
  }

  /// Algorithm 9: prefer areas with larger f+.
  template <typename Area>
  double LinkPriority(const Query& q, const Area& area) const {
    return AreaUpperBound(q, area);
  }

  size_t StateTupleCount(const LocalState&) const { return 0; }
  size_t GlobalStateTupleCount(const GlobalState&) const { return 0; }
  size_t AnswerTupleCount(const Answer& a) const { return a.size(); }

  void MergeAnswer(Answer* acc, Answer&& local, const Query& q) const;
  /// Keeps the k best of everything the initiator received.
  void FinalizeAnswer(Answer* acc, const Query& q) const;

  // Wire codecs: [scorer][varint k][f64 epsilon]; (m, tau); tuple vector.
  void EncodeQuery(const Query& q, wire::Buffer* buf) const {
    EncodeScorer(*q.scorer, buf);
    buf->PutVarint(q.k);
    buf->PutF64(q.epsilon);
  }
  /// Decodes over `*out`: a recycled query's scorer is reused in place.
  bool DecodeQuery(wire::Reader* r, Query* out) const {
    if (!DecodeScorer(r, &out->owned_scorer)) return false;
    out->scorer = out->owned_scorer.get();
    out->k = static_cast<size_t>(r->Varint());
    out->epsilon = r->F64();
    return r->ok();
  }
  void EncodeState(const TopKState& s, wire::Buffer* buf) const {
    buf->PutVarint(s.m);
    buf->PutF64(s.tau);
  }
  bool DecodeState(wire::Reader* r, TopKState* out) const {
    out->m = static_cast<size_t>(r->Varint());
    out->tau = r->F64();
    return r->ok();
  }
  size_t StateWireSize(const TopKState& s) const {
    return wire::VarintSize(s.m) + 8;
  }
  void EncodeAnswer(const Answer& a, wire::Buffer* buf) const {
    EncodeTupleVec(a, buf);
  }
  bool DecodeAnswer(wire::Reader* r, Answer* out) const {
    return DecodeTupleVec(r, out);
  }
  size_t AnswerWireSize(const Answer& a) const { return TupleVecWireSize(a); }

 private:
  template <typename Area>
  double AreaUpperBound(const Query& q, const Area& area) const {
    double best = -std::numeric_limits<double>::infinity();
    ForEachRect(area, [&](const Rect& r) {
      best = std::max(best, q.scorer->UpperBound(r));
    });
    return best;
  }
};

static_assert(QueryPolicy<TopKPolicy, Rect>);

}  // namespace ripple

#endif  // RIPPLE_QUERIES_TOPK_H_
