#ifndef RIPPLE_QUERIES_RANGE_H_
#define RIPPLE_QUERIES_RANGE_H_

#include <limits>

#include "geom/point.h"
#include "geom/rect.h"
#include "geom/wire.h"
#include "ripple/policy.h"
#include "store/local_store.h"
#include "store/tuple.h"
#include "store/wire.h"

namespace ripple {

/// A range query: all tuples within distance `radius` of `center` — the
/// paper's introduction contrasts rank queries against exactly this case,
/// where the search area is explicit in the query. Expressed as a RIPPLE
/// policy it needs no state at all: a link is relevant iff its region
/// intersects the query ball, independent of anything retrieved so far.
/// Included to demonstrate the framework's generality (and as the
/// best-case baseline for pruning: the search area never shrinks).
struct RangeQuery {
  Point center;
  double radius = 0.0;
  Norm norm = Norm::kL2;

  bool Matches(const Point& p) const {
    return Distance(p, center, norm) <= radius;
  }
};

/// RIPPLE policy for range queries. States are empty; the restriction
/// areas alone steer the search.
class RangePolicy {
 public:
  using Query = RangeQuery;
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

  Answer ComputeLocalAnswer(const LocalStore& store, const Query& q,
                            const LocalState&) const {
    return store.Within(q.center, q.radius, q.norm);
  }

  /// Relevant iff the area reaches into the query ball.
  template <typename Area>
  bool IsLinkRelevant(const Query& q, const GlobalState&,
                      const Area& area) const {
    bool relevant = false;
    ForEachRect(area, [&](const Rect& r) {
      if (r.MinDist(q.center, q.norm) <= q.radius) relevant = true;
    });
    return relevant;
  }

  template <typename Area>
  double LinkPriority(const Query& q, const Area& area) const {
    double best = std::numeric_limits<double>::infinity();
    ForEachRect(area, [&](const Rect& r) {
      best = std::min(best, r.MinDist(q.center, q.norm));
    });
    return -best;
  }

  size_t StateTupleCount(const LocalState&) const { return 0; }
  size_t GlobalStateTupleCount(const GlobalState&) const { return 0; }
  size_t AnswerTupleCount(const Answer& a) const { return a.size(); }

  void MergeAnswer(Answer* acc, Answer&& local, const Query&) const {
    acc->insert(acc->end(), std::make_move_iterator(local.begin()),
                std::make_move_iterator(local.end()));
  }
  void FinalizeAnswer(Answer* acc, const Query&) const {
    std::sort(acc->begin(), acc->end(), TupleIdLess());
  }

  // Wire codecs: [center][f64 radius][norm]; empty states occupy zero
  // bytes on the wire.
  void EncodeQuery(const Query& q, wire::Buffer* buf) const {
    EncodePoint(q.center, buf);
    buf->PutF64(q.radius);
    EncodeNorm(q.norm, buf);
  }
  bool DecodeQuery(wire::Reader* r, Query* out) const {
    if (!DecodePoint(r, &out->center)) return false;
    out->radius = r->F64();
    return r->ok() && DecodeNorm(r, &out->norm);
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

static_assert(QueryPolicy<RangePolicy, Rect>);

}  // namespace ripple

#endif  // RIPPLE_QUERIES_RANGE_H_
