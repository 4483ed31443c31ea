#ifndef RIPPLE_SIM_FAULT_MODEL_H_
#define RIPPLE_SIM_FAULT_MODEL_H_

#include <unordered_map>

#include "common/rng.h"
#include "net/fault.h"
#include "overlay/types.h"

namespace ripple {

/// Deterministic fault injector for the discrete-event network: decides,
/// from one seeded stream, whether a transmission is lost or duplicated,
/// how much extra delay it suffers, and when (if ever) each peer crashes.
///
/// Determinism has two layers. Per-message draws (loss/dup/jitter) come
/// from a sequential xoshiro stream, so they depend on the message order —
/// which the async engine's (time, seq)-ordered TimerQueue makes
/// deterministic. Per-peer crash times are *order-free*: they hash the
/// peer id against the seed, so peer p crashes at the same time no matter
/// how the query reaches it. Explicit CrashEvents in the options override
/// the hashed draw for their peer.
class FaultModel {
 public:
  FaultModel(const net::FaultOptions& options, PeerId protected_peer);

  /// True when the next transmission should be dropped (draws the stream).
  bool DropMessage();
  /// True when a delivered message should arrive a second time.
  bool DuplicateMessage();
  /// Applies delay jitter: delay * uniform[1, 1 + delay_jitter].
  double Jitter(double delay);

  /// The time `peer` crashes, or +infinity if it never does. The protected
  /// peer (the query initiator) never crashes.
  double CrashTimeOf(PeerId peer) const;
  bool CrashedAt(PeerId peer, double now) const {
    return CrashTimeOf(peer) <= now;
  }

  const net::FaultOptions& options() const { return options_; }

 private:
  net::FaultOptions options_;
  PeerId protected_peer_;
  Rng rng_;
  std::unordered_map<PeerId, double> explicit_crashes_;
};

}  // namespace ripple

#endif  // RIPPLE_SIM_FAULT_MODEL_H_
