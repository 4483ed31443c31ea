#ifndef RIPPLE_NET_TRANSPORT_H_
#define RIPPLE_NET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/envelope.h"
#include "wire/frame.h"

namespace ripple::net {

/// One received datagram: the envelope of its (first) frame plus the raw
/// bytes exactly as they arrived.
struct Datagram {
  Envelope env;
  std::vector<uint8_t> bytes;
};

/// The seam between the engines and the bytes they exchange — shaped like
/// a real network endpoint. Every AsyncEngine transmission is encoded
/// into a framed datagram (one frame, or several back-to-back frames for
/// a response bundle) and handed to Send(), which is fire-and-forget: it
/// never returns the receiver's bytes, because no socket can. Whatever
/// arrives at the receiving end surfaces through exactly one of two
/// receive paths:
///
///  * push — SetReceiver(cb) installs a delivery callback; the transport
///    invokes it once per arriving datagram. LoopbackTransport delivers
///    synchronously inside Send(), which is what lets the discrete-event
///    engine keep its deterministic clock: the receiver schedules the
///    simulated delivery, the wire itself takes zero host time.
///  * pull — Poll(out, timeout_ms) pumps one datagram. Transports that
///    own real sockets (net::UdpSocketTransport) implement the receive
///    side here; the base class has nothing to pull.
///
/// Nothing can cheat past the serialization boundary: objects never
/// cross, only bytes do. A transport may count, reorder, corrupt or drop
/// datagrams in flight (dropping = simply never delivering); senders
/// recover through the fault machinery's timers, never through a return
/// value.
///
/// Transports are single-owner: receiver installation is unsynchronized,
/// so concurrent engines must each use their own transport instance (the
/// executor builds one engine per job for this reason). LoopbackTransport's
/// counters are atomic so read-side aggregation across workers stays
/// well-defined.
class Transport {
 public:
  using Receiver =
      std::function<void(const Envelope& env, std::vector<uint8_t> bytes)>;

  virtual ~Transport() = default;

  /// Ships one datagram described by `env`. Takes ownership of the bytes;
  /// fire-and-forget — delivery (if any) happens through the receive path.
  virtual void Send(const Envelope& env, std::vector<uint8_t> datagram) = 0;

  /// Installs (or, with nullptr, removes) the push-delivery callback.
  void SetReceiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Pull-delivery: pops one pending datagram into `*out`, returning
  /// false when none arrived within `timeout_ms`. Socket transports
  /// override it with a real readiness wait; push transports have nothing
  /// to pull.
  virtual bool Poll(Datagram*, int /*timeout_ms*/ = 0) { return false; }

 protected:
  /// Hands one arriving datagram to the installed receiver. A push
  /// transport delivering with none installed is an engine bug.
  void Deliver(const Envelope& env, std::vector<uint8_t> bytes) {
    RIPPLE_CHECK(receiver_ && "datagram delivered with no receiver");
    receiver_(env, std::move(bytes));
  }

 private:
  Receiver receiver_;
};

/// Default transport: a loopback wire. Asserts that every sent datagram
/// is well-framed (each frame header parses and matches the envelope) —
/// the guarantee that no engine path skips encoding — counts sent
/// frames/bytes, then delivers the bytes unchanged, synchronously.
class LoopbackTransport : public Transport {
 public:
  void Send(const Envelope& env, std::vector<uint8_t> datagram) override {
    RIPPLE_CHECK(!datagram.empty() && "unframed transmission");
    wire::Reader r(datagram);
    uint64_t frames = 0;
    while (r.remaining() > 0) {
      wire::FrameHeader h;
      RIPPLE_CHECK(wire::DecodeFrameHeader(&r, &h) &&
                   "transmission carries a malformed frame");
      RIPPLE_CHECK(h.id == env.id && h.from == env.from && h.to == env.to &&
                   h.tag == static_cast<uint8_t>(env.kind) &&
                   "frame header disagrees with its envelope");
      RIPPLE_CHECK(r.Skip(wire::FramePayloadSize(h)));
      frames += 1;
    }
    // Relaxed: the counters are sums, not synchronization points. Workers
    // in the concurrent executor each own their engine (and so their
    // loopback), but read-side aggregation may race a late writer.
    frames_shipped_.fetch_add(frames, std::memory_order_relaxed);
    bytes_shipped_.fetch_add(datagram.size(), std::memory_order_relaxed);
    Deliver(env, std::move(datagram));
  }

  uint64_t bytes_shipped() const {
    return bytes_shipped_.load(std::memory_order_relaxed);
  }
  uint64_t frames_shipped() const {
    return frames_shipped_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> bytes_shipped_{0};
  std::atomic<uint64_t> frames_shipped_{0};
};

}  // namespace ripple::net

#endif  // RIPPLE_NET_TRANSPORT_H_
