#ifndef RIPPLE_NET_CLIENT_H_
#define RIPPLE_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/envelope.h"
#include "net/fault.h"
#include "net/peers.h"
#include "net/protocol.h"
#include "net/transport.h"
#include "ripple/wire_codec.h"

namespace ripple::net {

/// What one live query returned. `complete` means a finalized answer
/// arrived within the retry budget; the answer is then canonical
/// (FinalizeAnswer ran at the serving peer AND here — it is idempotent —
/// so its bytes compare directly against a simulator run of the same
/// query).
template <typename Policy>
struct LiveOutcome {
  bool complete = false;
  typename Policy::Answer answer{};
  int attempts = 0;        // query transmissions
  double latency_ms = 0;   // send of first attempt → answer decode
  uint64_t answer_bytes = 0;
};

/// The client side of the live-overlay protocol: issues one query at a
/// time to a serving peer, retransmits with capped backoff until the
/// finalized answer arrives (the daemon acks while working and replays
/// its cached answer for duplicates), finalizes client-side and reports
/// the outcome. Queries are sequential by design — net-bench measures
/// end-to-end latency, and the retry discipline is per-request.
///
/// The client never joins the overlay; it holds a read-only replica
/// (rebuilt from the peers-file config) so callers can run the seeded
/// drivers' analytic bootstrap — routing and seed-state folding — before
/// choosing the serving peer, exactly as the simulator's drivers do.
template <typename Overlay>
class NetClient {
 public:
  /// `client_id` must carry kClientIdBase (daemons learn the return
  /// address of such senders from the datagram source). `retry` is in
  /// milliseconds.
  NetClient(const Overlay* overlay, Transport* transport, PeerId client_id,
            RetryOptions retry = {})
      : overlay_(overlay), transport_(transport), client_id_(client_id),
        retry_(retry) {}

  /// Sends `query` (with `r` ripple steps and `initial_state` — the
  /// seeded drivers' bootstrap seed, or a default-constructed state) to
  /// `target` and waits for the answer, covering the whole domain.
  template <typename Policy>
  LiveOutcome<Policy> Execute(const Policy& policy,
                              const typename Policy::Query& query,
                              PeerId target, int64_t r,
                              const typename Policy::GlobalState&
                                  initial_state) {
    using Clock = std::chrono::steady_clock;
    WireCodec<Overlay, Policy> codec(overlay_, &policy);
    const uint64_t id = MakeMessageId(client_id_, next_seq_++);
    const Envelope env{id, client_id_, target, MessageKind::kQuery, 0, {}};
    wire::Buffer buf;
    EncodeLiveQuery(codec, env, query, initial_state, overlay_->FullArea(), r,
                    &buf);
    const std::vector<uint8_t> frame = buf.Take();

    LiveOutcome<Policy> out;
    const auto t0 = Clock::now();
    double patience_ms = retry_.timeout;
    int strikes = 0;
    transport_->Send(env, std::vector<uint8_t>(frame));
    out.attempts = 1;
    auto deadline = Clock::now() +
                    std::chrono::duration<double, std::milli>(patience_ms);
    for (;;) {
      const auto now = Clock::now();
      int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count());
      if (wait_ms < 0) wait_ms = 0;
      Datagram d;
      if (transport_->Poll(&d, wait_ms)) {
        if (d.env.id != id) continue;  // stale datagram of an earlier query
        if (d.env.kind == MessageKind::kAck) {
          // The serving peer is alive and working: restore patience.
          strikes = 0;
          deadline = Clock::now() +
                     std::chrono::duration<double, std::milli>(patience_ms);
          continue;
        }
        if (d.env.kind != MessageKind::kAnswer) continue;
        wire::Reader reader(d.bytes);
        Envelope got;
        typename Policy::Answer answer{};
        if (!DecodeEnvelopeFrame(&reader, &got) ||
            !codec.DecodeAnswerPayload(&reader, &answer) || !reader.ok() ||
            reader.remaining() != 0) {
          continue;  // undecodable: keep waiting, retransmission recovers
        }
        policy.FinalizeAnswer(&answer, query);
        out.answer = std::move(answer);
        out.answer_bytes = d.bytes.size();
        out.complete = true;
        out.latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        return out;
      }
      // Patience spent: retransmit the byte-identical frame, or give up.
      if (strikes >= retry_.max_retries) {
        out.latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        return out;  // incomplete
      }
      strikes += 1;
      patience_ms = BackedOffTimeout(patience_ms, retry_);
      transport_->Send(env, std::vector<uint8_t>(frame));
      out.attempts += 1;
      deadline = Clock::now() +
                 std::chrono::duration<double, std::milli>(patience_ms);
    }
  }

  const Overlay& overlay() const { return *overlay_; }
  PeerId client_id() const { return client_id_; }

 private:
  const Overlay* overlay_;
  Transport* transport_;
  PeerId client_id_;
  RetryOptions retry_;
  uint32_t next_seq_ = 1;
};

}  // namespace ripple::net

#endif  // RIPPLE_NET_CLIENT_H_
