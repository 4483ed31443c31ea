#ifndef RIPPLE_QUERIES_DIVERSIFY_DRIVER_H_
#define RIPPLE_QUERIES_DIVERSIFY_DRIVER_H_

#include <optional>
#include <utility>

#include "net/coverage.h"
#include "net/metrics.h"
#include "queries/diversify.h"
#include "ripple/api.h"
#include "ripple/engine.h"

namespace ripple {

/// Abstract "single tuple diversification query" service: finds the tuple
/// t* not in `query.exclude` minimizing phi, given the initial threshold
/// `tau` (only tuples with phi < tau qualify; Alg. 23 line 10 passes an
/// explicit tau to prune the search). Implementations add their network
/// costs to `stats`, with latency accumulated sequentially by the caller.
///
/// Both the RIPPLE-based solution and the CAN flooding baseline implement
/// this interface, so the surrounding greedy driver — and therefore the
/// produced result — is identical for both, as the paper's evaluation
/// mandates ("we force both heuristic diversification algorithms to
/// produce the same result at each step").
/// `coverage`, when non-null, accumulates fault-layer degradation of the
/// underlying network operations (always untouched by centralized and
/// perfect-network services): a non-complete() coverage means some
/// FindBest answer may have missed reachable tuples.
class SingleTupleService {
 public:
  virtual ~SingleTupleService() = default;

  virtual std::optional<Tuple> FindBest(const DivQuery& query, double tau,
                                        QueryStats* stats,
                                        net::Coverage* coverage = nullptr) = 0;
};

/// Options for the greedy k-diversification driver.
struct DiversifyOptions {
  size_t k = 10;
  /// MAX_ITERS of Algorithm 22.
  int max_iters = 10;
  /// Section 6.3 offers two initializations: "as simple as retrieving k
  /// random tuples, or more elaborate solving k times the single tuple
  /// diversification query". When true, the driver builds the initial set
  /// with k service calls (their network cost is part of the query); the
  /// caller's `initial` argument is then ignored.
  bool service_init = false;
};

/// Result of a k-diversification query.
struct DiversifyResult {
  TupleVec set;
  double objective = 0.0;
  QueryStats stats;
  int improve_rounds = 0;  // iterations of Alg. 22 actually executed
  /// Accumulated fault-layer degradation across every service call.
  net::Coverage coverage;
  /// False when any underlying run was partial: the greedy refinement is
  /// then a sound walk over what was reachable, not the exact heuristic.
  bool complete = true;
};

/// Algorithm 23 (div-improve): one greedy pass trying to swap a tuple of
/// `*o` for a better outside tuple. Returns true when `*o` improved.
///
/// Follows the paper's structure: members are examined in descending
/// phi(t_i, q, O \ {t_i}) order and the distributed threshold tau is set
/// per lines 5-9; acceptance additionally verifies the actual objective
/// delta so that every accepted swap strictly improves f (keeping Alg. 22
/// monotone, which the pseudocode's threshold alone does not guarantee).
bool DivImprove(SingleTupleService* service, const DiversifyObjective& obj,
                TupleVec* o, QueryStats* stats,
                net::Coverage* coverage = nullptr);

/// Algorithm 22 (diversify): greedy refinement from `initial` (which must
/// hold k tuples; see the drivers in bench/ and examples/ for how the
/// initial set is fetched) until no pass improves or max_iters is reached.
DiversifyResult Diversify(SingleTupleService* service,
                          const DiversifyObjective& obj, TupleVec initial,
                          const DiversifyOptions& options);

/// Centralized single-tuple oracle over a full tuple collection. Used as
/// the ground truth in tests and as the reference result for
/// ForcedResultService.
class CentralizedDivService : public SingleTupleService {
 public:
  /// `all` must outlive the service.
  explicit CentralizedDivService(const TupleVec* all) : all_(all) {}

  std::optional<Tuple> FindBest(const DivQuery& query, double tau,
                                QueryStats* stats,
                                net::Coverage* coverage = nullptr) override;

 private:
  const TupleVec* all_;
};

/// The paper's fairness device (Section 7.1): "we force both heuristic
/// diversification algorithms to produce the same result at each step.
/// Hence our metrics capture directly the cost/performance of methods and
/// are not affected by the quality of the result."
///
/// Each step runs the measured service — accruing its real network costs —
/// but continues the greedy driver with the reference answer, so RIPPLE
/// and the baseline walk the exact same query sequence. The reference
/// matters when several tuples tie on phi (the phi = 0 plateau of Eq. 3's
/// first clause): the distributed argmin may return any tie, the reference
/// pins one.
class ForcedResultService : public SingleTupleService {
 public:
  ForcedResultService(SingleTupleService* measured,
                      SingleTupleService* reference)
      : measured_(measured), reference_(reference) {}

  std::optional<Tuple> FindBest(const DivQuery& query, double tau,
                                QueryStats* stats,
                                net::Coverage* coverage = nullptr) override {
    QueryStats discard;
    (void)measured_->FindBest(query, tau, stats, coverage);
    return reference_->FindBest(query, tau, &discard, nullptr);
  }

 private:
  SingleTupleService* measured_;
  SingleTupleService* reference_;
};

/// The RIPPLE-based service (Section 6.2): each FindBest call is one
/// div-ripple run over the overlay. `base` carries everything but the
/// per-call query and threshold: initiator, ripple parameter, and (for an
/// async engine) fault/retry/deadline options, which apply to every
/// FindBest call independently. Generic over the engine, like the seeded
/// drivers: EngineT is the recursive Engine by default; instantiate with
/// AsyncEngine<Overlay, DivPolicy> for message-level (and fault-injected)
/// execution.
template <typename Overlay, typename EngineT = Engine<Overlay, DivPolicy>>
class RippleDivService : public SingleTupleService {
 public:
  RippleDivService(const Overlay* overlay, QueryRequest<DivPolicy> base)
      : engine_(overlay, DivPolicy{}), base_(std::move(base)) {}

  std::optional<Tuple> FindBest(const DivQuery& query, double tau,
                                QueryStats* stats,
                                net::Coverage* coverage = nullptr) override {
    QueryRequest<DivPolicy> request = base_;
    request.query = query;
    request.initial_state = DivState{tau};
    auto result = engine_.Run(request);
    *stats += result.stats;
    if (coverage != nullptr) *coverage += result.coverage;
    if (result.answer.empty()) return std::nullopt;
    // Guard against threshold-equality answers (Alg. 18 emits on phi ==
    // tau_L, which can match the initial tau itself): require strict
    // improvement.
    const Tuple& t = result.answer[0];
    if (query.Phi(t.key) >= tau) return std::nullopt;
    return t;
  }

  /// The underlying engine, e.g. to attach a sink (SetSink); spans of
  /// successive FindBest calls accumulate in recording order.
  EngineT* mutable_engine() { return &engine_; }

 private:
  EngineT engine_;
  QueryRequest<DivPolicy> base_;
};

}  // namespace ripple

#endif  // RIPPLE_QUERIES_DIVERSIFY_DRIVER_H_
