#ifndef RIPPLE_QUERIES_DIVERSIFY_H_
#define RIPPLE_QUERIES_DIVERSIFY_H_

#include <limits>
#include <optional>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "geom/wire.h"
#include "ripple/policy.h"
#include "store/local_store.h"
#include "store/tuple.h"
#include "store/wire.h"

namespace ripple {

/// Parameters of the k-diversification objective (paper, Eq. 1):
///   f(O, q) = lambda * max_{x in O} dr(x, q)
///           - (1 - lambda) * min_{y != z in O} dv(y, z),
/// to be *minimized*: low maximum distance to the query (relevant set) and
/// high minimum pairwise distance (diverse set) both lower f. Boundary
/// conventions: the max over an empty set is 0 and the pairwise min of a
/// set with fewer than two tuples is 0.
struct DiversifyObjective {
  Point query;          // the query point q
  double lambda = 0.5;  // relevance/diversity trade-off in [0, 1]
  Norm norm = Norm::kL1;

  /// Quantities of O that Eq. 3 reuses for every candidate: the maximum
  /// relevance distance (Rmax) and the minimum pairwise diversity (Dmin).
  /// Computing them once per query turns each phi evaluation from O(|O|^2)
  /// into O(|O|).
  struct SetStats {
    double r_max = 0.0;
    double d_min = 0.0;  // 0 when |O| < 2 (no pairs)
  };
  SetStats ComputeStats(const TupleVec& o) const;

  /// f(O, q).
  double Value(const TupleVec& o) const;

  /// phi(t, q, O) = f(O ∪ {t}, q) - f(O, q): the cost of appending t.
  /// For |O| >= 2 this equals the closed form of Eq. 3.
  double Phi(const Point& t, const TupleVec& o) const;
  double Phi(const Point& t, const TupleVec& o, const SetStats& stats) const;

  /// phi-: a sound lower bound of Phi over every point of `r`
  /// (used by Algorithms 20-21 to prune and prioritize regions).
  double PhiLowerBound(const Rect& r, const TupleVec& o) const;
  double PhiLowerBound(const Rect& r, const TupleVec& o,
                       const SetStats& stats) const;
};

/// The single tuple diversification query (paper, Eq. 2): find t* not in O
/// minimizing phi. `objective` and `exclude` describe the problem;
/// tuples whose ids appear in `exclude` are never returned.
struct DivQuery {
  DiversifyObjective objective;
  TupleVec exclude;  // the current set O
  DiversifyObjective::SetStats stats;  // set by Precompute()
  bool prepared = false;

  /// Caches the exclusion set's Rmax/Dmin; call after filling `exclude`
  /// (MakeDivQuery does this for you). Phi/PhiLowerBound refuse to run on
  /// an unprepared query — stale cached stats would be silently wrong.
  void Precompute() {
    stats = objective.ComputeStats(exclude);
    prepared = true;
  }

  double Phi(const Point& t) const {
    RIPPLE_CHECK(prepared);
    return objective.Phi(t, exclude, stats);
  }
  double PhiLowerBound(const Rect& r) const {
    RIPPLE_CHECK(prepared);
    return objective.PhiLowerBound(r, exclude, stats);
  }

  bool IsExcluded(uint64_t id) const {
    for (const Tuple& t : exclude) {
      if (t.id == id) return true;
    }
    return false;
  }
};

/// Builds a ready-to-run single tuple diversification query.
inline DivQuery MakeDivQuery(DiversifyObjective objective, TupleVec exclude) {
  DivQuery q;
  q.objective = std::move(objective);
  q.exclude = std::move(exclude);
  q.Precompute();
  return q;
}

/// Diversification state: the best (lowest) phi seen so far (a threshold).
struct DivState {
  double tau = std::numeric_limits<double>::infinity();
};

/// RIPPLE policy for the single tuple diversification query —
/// Algorithms 16-21. The answer is the minimizing tuple (empty when the
/// network holds no admissible tuple, or none beats the initial tau).
class DivPolicy {
 public:
  using Query = DivQuery;
  using LocalState = DivState;
  using GlobalState = DivState;
  using Answer = TupleVec;  // zero or one tuple

  GlobalState InitialGlobalState(const Query&) const { return {}; }

  /// Algorithm 16: tau_L = min(phi of best local tuple, tau_G).
  LocalState ComputeLocalState(const LocalStore& store, const Query& q,
                               const GlobalState& g) const;

  /// Algorithm 17: the global state becomes the local state.
  GlobalState ComputeGlobalState(const Query&, const GlobalState&,
                                 const LocalState& l) const {
    return GlobalState{l.tau};
  }

  /// Algorithm 19: the minimum of all thresholds.
  void MergeLocalStates(const Query&, LocalState* mine,
                        const std::vector<LocalState>& received) const {
    for (const LocalState& s : received) {
      mine->tau = std::min(mine->tau, s.tau);
    }
  }

  /// Algorithm 18: the local minimizer, if it attains the local threshold.
  Answer ComputeLocalAnswer(const LocalStore& store, const Query& q,
                            const LocalState& l) const;

  /// Algorithm 20: visit areas whose phi- undercuts the global threshold.
  template <typename Area>
  bool IsLinkRelevant(const Query& q, const GlobalState& g,
                      const Area& area) const {
    return AreaLowerBound(q, area) < g.tau;
  }

  /// Algorithm 21: lowest phi- first.
  template <typename Area>
  double LinkPriority(const Query& q, const Area& area) const {
    return -AreaLowerBound(q, area);
  }

  size_t StateTupleCount(const LocalState&) const { return 0; }
  size_t GlobalStateTupleCount(const GlobalState&) const { return 0; }
  size_t AnswerTupleCount(const Answer& a) const { return a.size(); }

  /// Keeps the phi-minimizing tuple (ties broken by id).
  void MergeAnswer(Answer* acc, Answer&& local, const Query& q) const;
  void FinalizeAnswer(Answer*, const Query&) const {}

  // Wire codecs: [query point][f64 lambda][norm][exclude tuples]; decode
  // re-runs Precompute() so the cached SetStats never travel (they are
  // derived data and would go stale undetectably). State is a bare f64.
  void EncodeQuery(const Query& q, wire::Buffer* buf) const {
    EncodePoint(q.objective.query, buf);
    buf->PutF64(q.objective.lambda);
    EncodeNorm(q.objective.norm, buf);
    EncodeTupleVec(q.exclude, buf);
  }
  bool DecodeQuery(wire::Reader* r, Query* out) const {
    if (!DecodePoint(r, &out->objective.query)) return false;
    out->objective.lambda = r->F64();
    if (!r->ok() || !DecodeNorm(r, &out->objective.norm)) return false;
    if (!DecodeTupleVec(r, &out->exclude)) return false;
    out->Precompute();
    return true;
  }
  void EncodeState(const DivState& s, wire::Buffer* buf) const {
    buf->PutF64(s.tau);
  }
  bool DecodeState(wire::Reader* r, DivState* out) const {
    out->tau = r->F64();
    return r->ok();
  }
  size_t StateWireSize(const DivState&) const { return 8; }
  void EncodeAnswer(const Answer& a, wire::Buffer* buf) const {
    EncodeTupleVec(a, buf);
  }
  bool DecodeAnswer(wire::Reader* r, Answer* out) const {
    return DecodeTupleVec(r, out);
  }
  size_t AnswerWireSize(const Answer& a) const { return TupleVecWireSize(a); }

 private:
  /// The best local tuple outside the exclusion set, if any.
  std::optional<Tuple> BestLocal(const LocalStore& store, const Query& q,
                                 double* phi) const;

  template <typename Area>
  double AreaLowerBound(const Query& q, const Area& area) const {
    double best = std::numeric_limits<double>::infinity();
    ForEachRect(area, [&](const Rect& r) {
      best = std::min(best, q.PhiLowerBound(r));
    });
    return best;
  }
};

static_assert(QueryPolicy<DivPolicy, Rect>);

}  // namespace ripple

#endif  // RIPPLE_QUERIES_DIVERSIFY_H_
