#ifndef RIPPLE_NET_FAULT_H_
#define RIPPLE_NET_FAULT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "overlay/types.h"

namespace ripple::net {

/// A scheduled peer failure: `peer` stops processing and acknowledging
/// messages at simulated time `at` (messages already delivered before `at`
/// were handled normally; everything after is silently dropped).
struct CrashEvent {
  PeerId peer = kInvalidPeer;
  double at = 0.0;
};

/// What the simulated network does to messages. All randomness is drawn
/// from one seeded stream inside the FaultModel, so a (FaultOptions, seed)
/// pair reproduces the exact same fault schedule on every run.
///
/// The default options describe a perfect network: AnyFault() is false and
/// the async engine then runs the exact fault-free protocol (no timers, no
/// envelopes, identical message counts to the recursive engine).
struct FaultOptions {
  /// Probability that any single message transmission is lost.
  double loss_rate = 0.0;
  /// Probability that a delivered message arrives twice (the copy takes an
  /// independently jittered delay).
  double dup_rate = 0.0;
  /// Maximum extra delay fraction: each delivery is stretched by a factor
  /// uniform in [1, 1 + delay_jitter].
  double delay_jitter = 0.0;
  /// Probability that a peer crashes during the query; the crash time is
  /// uniform in [0, crash_window]. The initiator never crashes.
  double crash_rate = 0.0;
  /// Horizon for randomly scheduled crashes (simulated time units).
  double crash_window = 64.0;
  /// Explicitly scheduled crashes (in addition to crash_rate's draws).
  std::vector<CrashEvent> crashes;
  /// Seed of the fault stream (independent from workload seeds so the same
  /// query can be replayed under different fault schedules).
  uint64_t seed = 1;

  bool AnyFault() const {
    return loss_rate > 0 || dup_rate > 0 || delay_jitter > 0 ||
           crash_rate > 0 || !crashes.empty();
  }
};

/// Timeout/retry discipline for fault-tolerant execution. Only consulted
/// when FaultOptions::AnyFault() is true — a perfect network needs no
/// timers and keeps the exact lemma-style message accounting.
struct RetryOptions {
  /// Time a requester waits for a response (or progress ack) before it
  /// retransmits. Generous by default: slow-phase subtrees are legitimately
  /// deep, and premature retransmissions are pure overhead.
  double timeout = 32.0;
  /// Exponential backoff factor applied per consecutive retransmission.
  double backoff = 2.0;
  /// Upper bound on the backed-off timeout.
  double timeout_cap = 256.0;
  /// Consecutive unanswered retransmissions (no response, no ack) before
  /// the requester gives up on a link and degrades the result.
  int max_retries = 3;
  /// Per-peer duplicate-suppression window: how many recent message ids a
  /// peer remembers (FIFO eviction).
  size_t dedup_window = 1024;
};

/// The retry discipline's capped exponential backoff.
inline double BackedOffTimeout(double current, const RetryOptions& r) {
  return std::min(current * r.backoff, r.timeout_cap);
}

}  // namespace ripple::net

#endif  // RIPPLE_NET_FAULT_H_
