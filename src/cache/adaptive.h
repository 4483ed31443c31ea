#ifndef RIPPLE_CACHE_ADAPTIVE_H_
#define RIPPLE_CACHE_ADAPTIVE_H_

#include <cstdint>
#include <string>

#include "net/metrics.h"
#include "ripple/api.h"

namespace ripple::cache {

/// log2-ish overlay depth estimate from the peer count — the hint the
/// controller anchors its no-history default to.
int DepthHint(size_t num_peers);

/// Chooses the ripple parameter `r` per query from a decaying window of
/// observed QueryStats. Deterministic: Choose() is a pure function of
/// (depth hint, observation sequence), and every driver feeds
/// observations sequentially in item order — never from worker threads —
/// so "--ripple=auto" answers and stats are byte-identical across runs
/// and executor thread counts.
///
/// Control model (docs/CACHING.md): start from r0 = clamp(depth/3, 1,
/// kMaxHops); once observations exist, compare the window's messages per
/// latency hop against the flood/calm thresholds and nudge r by one in
/// the direction that trades the cheaper resource — messages look like a
/// broadcast, raise r; pruning is already effective, lower r toward the
/// latency-optimal fast extreme.
class AdaptiveController {
 public:
  explicit AdaptiveController(int depth_hint);

  /// The controller's current choice of a concrete ripple parameter.
  RippleParam Choose() const;

  /// `requested` unless it is Auto(), which resolves through Choose().
  RippleParam Resolve(RippleParam requested) const {
    return requested.is_auto() ? Choose() : requested;
  }

  /// Folds one executed query's cost into the decaying window.
  void Observe(const QueryStats& stats);

  uint64_t observations() const { return observations_; }
  std::string Summary() const;

 private:
  int depth_hint_;
  uint64_t observations_ = 0;
  double ewma_hops_ = 0.0;
  double ewma_messages_ = 0.0;
  double ewma_bytes_ = 0.0;
};

}  // namespace ripple::cache

#endif  // RIPPLE_CACHE_ADAPTIVE_H_
