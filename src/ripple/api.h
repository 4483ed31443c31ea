#ifndef RIPPLE_RIPPLE_API_H_
#define RIPPLE_RIPPLE_API_H_

#include <limits>
#include <optional>
#include <ostream>
#include <string>

#include "common/result.h"
#include "net/coverage.h"
#include "net/fault.h"
#include "net/metrics.h"
#include "overlay/types.h"

namespace ripple {

/// The paper's single tuning knob as a value type. `Fast()` contacts all
/// relevant links at once (Algorithm 1), `Slow()` contacts one prioritized
/// link at a time for the whole run (Algorithm 2), `Hops(r)` runs the slow
/// discipline for the first r hops and switches to fast below (Algorithm
/// 3). Replaces the former magic `int r` and its slow-sentinel constant.
class RippleParam {
 public:
  /// Default-constructed parameter is `fast` — the latency-optimal extreme.
  constexpr RippleParam() = default;

  static constexpr RippleParam Fast() { return RippleParam(0); }
  static constexpr RippleParam Slow() { return RippleParam(kSlowHops); }
  /// r >= 0; values at or above any overlay depth degenerate to Slow().
  static constexpr RippleParam Hops(int r) {
    return RippleParam(r < 0 ? 0 : r);
  }
  /// "Choose r for me": a placeholder the adaptive controller
  /// (cache/adaptive.h) resolves into a concrete Fast/Slow/Hops value per
  /// query. Engines never see Auto — drivers resolve it first; an
  /// unresolved Auto degrades to Fast (hops() == 0) so nothing deadlocks.
  static constexpr RippleParam Auto() { return RippleParam(kAutoHops); }

  /// The slow-phase hop budget the engine counts down. Slow() returns a
  /// value exceeding every reachable overlay depth; an unresolved Auto()
  /// reads as 0 (fast).
  constexpr int hops() const { return hops_ < 0 ? 0 : hops_; }
  constexpr bool is_fast() const { return hops_ == 0; }
  constexpr bool is_slow() const { return hops_ >= kSlowHops; }
  constexpr bool is_auto() const { return hops_ == kAutoHops; }

  friend constexpr bool operator==(RippleParam a, RippleParam b) {
    return a.hops_ == b.hops_;
  }
  friend constexpr bool operator!=(RippleParam a, RippleParam b) {
    return !(a == b);
  }

  /// "fast", "slow", "auto" or the decimal hop count. Round-trips through
  /// Parse: `Parse(ToString(x)) == x` for every representable value.
  std::string ToString() const;

  /// Parses "fast" | "slow" | "auto" | a non-negative decimal ("0" ==
  /// fast). Anything else — "auto2", "-3", "" — is rejected. Used by CLI
  /// flags and bench headers.
  static Result<RippleParam> Parse(const std::string& text);

  friend std::ostream& operator<<(std::ostream& os, RippleParam r) {
    return os << r.ToString();
  }

 private:
  static constexpr int kSlowHops = 1 << 20;
  static constexpr int kAutoHops = -1;

  constexpr explicit RippleParam(int hops) : hops_(hops) {}

  int hops_ = 0;
};

/// One rank-query execution request — the single entry point shared by the
/// recursive `Engine`, the discrete-event `AsyncEngine` and every driver
/// built on them (`SeededTopK`, `SeededSkyline`, `RippleDivService`).
///
/// Engines read what applies to them: the recursive engine is the analytic
/// model of a perfect network and ignores `retry`, `fault` and `deadline`;
/// the async engine honors all fields.
template <typename Policy>
struct QueryRequest {
  using Query = typename Policy::Query;
  using GlobalState = typename Policy::GlobalState;

  /// The peer the query enters the network at.
  PeerId initiator = kInvalidPeer;
  /// The policy-specific query description.
  Query query{};
  /// The fast/slow/ripple trade-off knob.
  RippleParam ripple = RippleParam::Fast();
  /// Optional pre-seeded global state (the diversification driver's
  /// explicit tau, the seeded top-k driver's witness state). Defaults to
  /// the policy's neutral InitialGlobalState.
  std::optional<GlobalState> initial_state;
  /// Give-up time (simulated units) for the async engine: when it fires,
  /// the initiator folds what it has and returns a flagged partial result.
  /// infinity = no deadline.
  double deadline = std::numeric_limits<double>::infinity();
  /// Timeout/retry discipline (async engine, only when faults are on).
  net::RetryOptions retry;
  /// Fault injection model for the simulated network (async engine).
  net::FaultOptions fault;
  /// Distributed-tracing identity, decided once at the initiator (head
  /// sampling): 0 = unsampled. A nonzero id is stamped into every v2
  /// frame the query causes, so per-peer journals can be assembled back
  /// into one span tree offline (docs/OBSERVABILITY.md).
  uint64_t trace_id = 0;
};

/// What every engine and driver returns. `answer`/`stats` keep their
/// pre-redesign meaning; `coverage`/`complete` report fault-layer
/// degradation (always complete for the recursive engine), and
/// `completion_time` is simulated wall-clock (0 for the recursive engine,
/// whose clock is `stats.latency_hops`).
template <typename AnswerT>
struct QueryResult {
  AnswerT answer{};
  QueryStats stats;
  net::Coverage coverage;
  /// True iff nothing the answer may depend on was abandoned: every
  /// forward resolved, every answer delivery landed. A `false` means the
  /// answer is a sound digest of what was reachable, not the exact result.
  bool complete = true;
  double completion_time = 0.0;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_API_H_
