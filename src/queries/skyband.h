#ifndef RIPPLE_QUERIES_SKYBAND_H_
#define RIPPLE_QUERIES_SKYBAND_H_

#include <limits>
#include <vector>

#include "geom/dominance.h"
#include "geom/wire.h"
#include "ripple/policy.h"
#include "store/local_algos.h"
#include "store/local_store.h"
#include "store/tuple.h"
#include "store/wire.h"

namespace ripple {

/// A k-skyband query: all tuples dominated by fewer than `band` others
/// (per peer, ComputeKSkyband in store/local_algos.h).
struct SkybandQuery {
  size_t band = 2;
  Norm norm = Norm::kL2;
};

/// Partial-band state: tuples that, as far as the query has seen, are
/// dominated by fewer than `band` others. Counting within a partial set
/// can only undercount dominators, so the state is a superset of the true
/// band restricted to seen tuples — pruning stays sound.
struct SkybandState {
  TupleVec tuples;
  TupleVec dominators;  // bounded min-sum subset for region tests

  static constexpr size_t kMaxDominators = 64;
};

/// RIPPLE policy for distributed k-skyband retrieval — a generalization of
/// the Section 5 skyline policy: a region is prunable only when at least
/// `band` state tuples dominate all of it, because every tuple inside
/// would then have >= band dominators.
class SkybandPolicy {
 public:
  using Query = SkybandQuery;
  using LocalState = SkybandState;
  using GlobalState = SkybandState;
  using Answer = TupleVec;

  GlobalState InitialGlobalState(const Query&) const { return {}; }

  LocalState ComputeLocalState(const LocalStore& store, const Query& q,
                               const GlobalState& g) const;
  GlobalState ComputeGlobalState(const Query& q, const GlobalState& g,
                                 const LocalState& l) const;
  void MergeLocalStates(const Query& q, LocalState* mine,
                        const std::vector<LocalState>& received) const;
  Answer ComputeLocalAnswer(const LocalStore& store, const Query& q,
                            const LocalState& l) const;

  template <typename Area>
  bool IsLinkRelevant(const Query& q, const GlobalState& g,
                      const Area& area) const {
    const TupleVec& candidates =
        g.dominators.empty() ? g.tuples : g.dominators;
    bool prunable = true;
    ForEachRect(area, [&](const Rect& r) {
      size_t count = 0;
      for (const Tuple& s : candidates) {
        if (DominatesRect(s.key, r) && ++count >= q.band) break;
      }
      if (count < q.band) prunable = false;
    });
    return !prunable;
  }

  template <typename Area>
  double LinkPriority(const Query& q, const Area& area) const {
    double best = std::numeric_limits<double>::infinity();
    ForEachRect(area, [&](const Rect& r) {
      best = std::min(best, r.MinDist(Point(r.dims()), q.norm));
    });
    return -best;
  }

  size_t StateTupleCount(const LocalState& l) const { return l.tuples.size(); }
  size_t GlobalStateTupleCount(const GlobalState& g) const {
    return g.tuples.size();
  }
  size_t AnswerTupleCount(const Answer& a) const { return a.size(); }

  void MergeAnswer(Answer* acc, Answer&& local, const Query& q) const;
  /// Exact extraction: the k-skyband of everything collected. Correct
  /// because any tuple with >= band global dominators has >= band
  /// dominators inside the band itself (dominators of dominators also
  /// dominate, so dominator counts are self-contained), and the collected
  /// set is a superset of the band.
  void FinalizeAnswer(Answer* acc, const Query& q) const;

  // Wire codecs: [varint band][norm]; two tuple vectors; tuple vector.
  void EncodeQuery(const Query& q, wire::Buffer* buf) const {
    buf->PutVarint(q.band);
    EncodeNorm(q.norm, buf);
  }
  bool DecodeQuery(wire::Reader* r, Query* out) const {
    out->band = static_cast<size_t>(r->Varint());
    return r->ok() && DecodeNorm(r, &out->norm);
  }
  void EncodeState(const SkybandState& s, wire::Buffer* buf) const {
    EncodeTupleVec(s.tuples, buf);
    EncodeTupleVec(s.dominators, buf);
  }
  bool DecodeState(wire::Reader* r, SkybandState* out) const {
    return DecodeTupleVec(r, &out->tuples) &&
           DecodeTupleVec(r, &out->dominators);
  }
  void EncodeAnswer(const Answer& a, wire::Buffer* buf) const {
    EncodeTupleVec(a, buf);
  }
  bool DecodeAnswer(wire::Reader* r, Answer* out) const {
    return DecodeTupleVec(r, out);
  }
};

static_assert(QueryPolicy<SkybandPolicy, Rect>);

}  // namespace ripple

#endif  // RIPPLE_QUERIES_SKYBAND_H_
