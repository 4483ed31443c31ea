#ifndef RIPPLE_QUERIES_SKYLINE_H_
#define RIPPLE_QUERIES_SKYLINE_H_

#include <limits>
#include <optional>
#include <vector>

#include "geom/dominance.h"
#include "geom/wire.h"
#include "ripple/policy.h"
#include "store/local_algos.h"
#include "store/local_store.h"
#include "store/tuple.h"
#include "store/wire.h"

namespace ripple {

/// A skyline query: min-is-better dominance on every attribute (paper,
/// Section 5). `norm` selects the distance used by the prioritization
/// heuristic d- (Alg. 15). An optional `constraint` box restricts the
/// skyline to tuples inside it (the constrained skylines DSL was designed
/// for — its hierarchy roots at "the region containing the lower-left
/// corner of the constraint").
struct SkylineQuery {
  Norm norm = Norm::kL2;
  std::optional<Rect> constraint;

  bool Admits(const Point& p) const {
    return !constraint.has_value() || constraint->Contains(p);
  }
  /// The reference corner prioritization aims at (Alg. 15's origin, or the
  /// constraint's lower corner).
  Point Origin(int dims) const {
    return constraint.has_value() ? constraint->lo() : Point(dims);
  }
  /// The skyline is the 1-skyband.
  size_t Band() const { return 1; }
  const Rect* Constraint() const {
    return constraint.has_value() ? &*constraint : nullptr;
  }
};

/// The skyline family's state: tuples that, as far as the query has seen,
/// are dominated by fewer than the band others (a partial skyline for the
/// skyline policy). Global states additionally carry `dominators` — a
/// small min-coordinate-sum subset used for the Algorithm 14 region test.
/// At high dimensionality states hold thousands of tuples, but only the
/// ones with uniformly small coordinates can ever dominate a whole region,
/// and those have the smallest sums; checking a bounded subset (the
/// policy's kMaxDominators) keeps pruning sound (never prunes more, may
/// prune less) at O(1) tuples per link. `tuples` is kept in ascending id
/// order (docs/STORE.md).
struct BandState {
  TupleVec tuples;
  TupleVec dominators;
};

/// The tuples of `by_id` (ascending ids) whose id `store` holds, in that
/// order: each stored id is looked up in `by_id`.
TupleVec StoredTuples(const LocalStore& store, const TupleVec& by_id);

/// What the skyline and skyband policies share (Algorithms 10-13, 15 and
/// the state codecs): the local state is one LocalStore::Skyband call at
/// the query's band, the global state and the merged local states are the
/// band of the union (MergeBands), the local answer is the stored tuples
/// of the local state, and priority is the distance to the query's
/// reference corner. A policy adds its query codec, its link-relevance
/// rule and its answer merge, and sets `MaxDominators`, the size of the
/// global state's dominator subset. `Query` offers Band(), Constraint(),
/// Origin(dims) and `norm`.
template <typename Q, size_t MaxDominators>
class BandPolicy {
 public:
  static constexpr size_t kMaxDominators = MaxDominators;

  using Query = Q;
  using LocalState = BandState;
  using GlobalState = BandState;
  using Answer = TupleVec;

  GlobalState InitialGlobalState(const Query&) const { return {}; }

  /// Algorithm 10: the local band (over the constraint box, if any) minus
  /// what the received state disqualifies, in one store pass. A local
  /// band tuple survives the merge with g exactly when it has fewer than
  /// band dominators in store ∪ g, and every store dominator of such a
  /// tuple is itself in the local band, so this is the band of store ∪ g
  /// restricted to the store.
  LocalState ComputeLocalState(const LocalStore& store, const Query& q,
                               const GlobalState& g) const {
    return {store.Skyband(g.tuples, q.Band(), q.Constraint()), {}};
  }

  /// Algorithm 11: the band of (local ∪ global), with the bounded
  /// dominator subset refreshed — the min-sum tuples are the only ones
  /// that can dominate whole regions.
  GlobalState ComputeGlobalState(const Query& q, const GlobalState& g,
                                 const LocalState& l) const {
    GlobalState out;
    out.tuples = MergeBands(l.tuples, g.tuples, q.Band());
    out.dominators = SelectDominators(out.tuples, kMaxDominators);
    return out;
  }

  /// Algorithm 13: the band of the union of all states, folded one
  /// received state at a time (each fold's result is again a band of
  /// itself, and a tuple a fold drops keeps its >= band dominators).
  void MergeLocalStates(const Query& q, LocalState* mine,
                        const std::vector<LocalState>& received) const {
    for (const LocalState& s : received) {
      mine->tuples = MergeBands(std::move(mine->tuples), s.tuples, q.Band());
    }
  }

  /// Algorithm 12: the *local* tuples of the local state, in its id order.
  /// After slow-phase merges the state may contain remote tuples; only
  /// tuples this peer stores are its contribution to the answer.
  Answer ComputeLocalAnswer(const LocalStore& store, const Query&,
                            const LocalState& l) const {
    return StoredTuples(store, l.tuples);
  }

  /// Algorithm 15: areas closer to the reference corner first (larger
  /// priority == visited earlier, so priority = -d-(area, origin)).
  template <typename Area>
  double LinkPriority(const Query& q, const Area& area) const {
    double best = std::numeric_limits<double>::infinity();
    ForEachRect(area, [&](const Rect& r) {
      best = std::min(best, r.MinDist(q.Origin(r.dims()), q.norm));
    });
    return -best;
  }

  size_t StateTupleCount(const LocalState& l) const { return l.tuples.size(); }
  size_t GlobalStateTupleCount(const GlobalState& g) const {
    return g.tuples.size();
  }
  size_t AnswerTupleCount(const Answer& a) const { return a.size(); }

  // Wire codecs: two tuple vectors (tuples, dominators); tuple vector.
  void EncodeState(const BandState& s, wire::Buffer* buf) const {
    EncodeTupleVec(s.tuples, buf);
    EncodeTupleVec(s.dominators, buf);
  }
  bool DecodeState(wire::Reader* r, BandState* out) const {
    return DecodeTupleVec(r, &out->tuples) &&
           DecodeTupleVec(r, &out->dominators);
  }
  size_t StateWireSize(const BandState& s) const {
    return TupleVecWireSize(s.tuples) + TupleVecWireSize(s.dominators);
  }
  void EncodeAnswer(const Answer& a, wire::Buffer* buf) const {
    EncodeTupleVec(a, buf);
  }
  bool DecodeAnswer(wire::Reader* r, Answer* out) const {
    return DecodeTupleVec(r, out);
  }
  size_t AnswerWireSize(const Answer& a) const { return TupleVecWireSize(a); }
};

/// RIPPLE policy for skyline queries — Algorithms 10-15.
class SkylinePolicy : public BandPolicy<SkylineQuery, 32> {
 public:
  /// Algorithm 14: prune an area when some state tuple dominates all of
  /// it; constrained queries additionally prune areas outside the box.
  template <typename Area>
  bool IsLinkRelevant(const Query& q, const GlobalState& g,
                      const Area& area) const {
    if (q.constraint.has_value()) {
      bool touches = false;
      ForEachRect(area, [&](const Rect& r) {
        if (r.Intersects(*q.constraint)) touches = true;
      });
      if (!touches) return false;
    }
    const TupleVec& candidates =
        g.dominators.empty() ? g.tuples : g.dominators;
    for (const Tuple& s : candidates) {
      bool dominates_all = true;
      ForEachRect(area, [&](const Rect& r) {
        if (!DominatesRect(s.key, r)) dominates_all = false;
      });
      if (dominates_all) return false;
    }
    return true;
  }

  /// Every per-peer contribution is a skyline of itself, so the
  /// accumulator stays a skyline throughout: MergeBands at band 1.
  void MergeAnswer(Answer* acc, Answer&& local, const Query& q) const;
  /// The accumulator already is the skyline of everything received; this
  /// only puts it in id order.
  void FinalizeAnswer(Answer* acc, const Query& q) const;

  // Query codec: [norm][u8 has_constraint][rect?].
  void EncodeQuery(const Query& q, wire::Buffer* buf) const {
    EncodeNorm(q.norm, buf);
    buf->PutU8(q.constraint.has_value() ? 1 : 0);
    if (q.constraint.has_value()) EncodeRect(*q.constraint, buf);
  }
  bool DecodeQuery(wire::Reader* r, Query* out) const {
    if (!DecodeNorm(r, &out->norm)) return false;
    const uint8_t has_constraint = r->U8();
    if (!r->ok() || has_constraint > 1) {
      r->Fail();
      return false;
    }
    out->constraint.reset();
    if (has_constraint != 0) {
      Rect c;
      if (!DecodeRect(r, &c)) return false;
      out->constraint = c;
    }
    return true;
  }
};

static_assert(QueryPolicy<SkylinePolicy, Rect>);

}  // namespace ripple

#endif  // RIPPLE_QUERIES_SKYLINE_H_
