#ifndef RIPPLE_NET_ENVELOPE_H_
#define RIPPLE_NET_ENVELOPE_H_

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "overlay/types.h"
#include "wire/frame.h"

namespace ripple::net {

/// Wire-level message classes of the fault-tolerant protocol. Query,
/// response and answer exist in the fault-free protocol too; acks only
/// appear as reactions to retransmitted queries. Tags 4-7 are the admin
/// plane (docs/NET.md): requester-initiated monitoring probes a daemon
/// answers out of its serve loop. Admin requests carry an empty payload;
/// the reply reuses the request's tag and message id, so a monitor
/// correlates by id exactly like the query protocol does.
enum class MessageKind : uint8_t {
  kQuery,          // query forward (carries the global state)
  kResponse,       // state bundle back to the requester
  kAck,            // progress ack: "request received, session running"
  kAnswer,         // qualifying tuples to the initiator
  kAdminPing,      // liveness probe; reply carries uptime + peers served
  kAdminStats,     // full counter scrape (AdminStatsReport)
  kAdminSnapshot,  // current windowed metrics snapshot (obs::Snapshot)
  kAdminHealth,    // compact health verdict (AdminHealthReport)
};

inline const char* MessageKindName(MessageKind k) {
  switch (k) {
    case MessageKind::kQuery: return "query";
    case MessageKind::kResponse: return "response";
    case MessageKind::kAck: return "ack";
    case MessageKind::kAnswer: return "answer";
    case MessageKind::kAdminPing: return "admin-ping";
    case MessageKind::kAdminStats: return "admin-stats";
    case MessageKind::kAdminSnapshot: return "admin-snapshot";
    case MessageKind::kAdminHealth: return "admin-health";
  }
  return "?";
}

inline bool IsAdminKind(MessageKind k) {
  return k >= MessageKind::kAdminPing && k <= MessageKind::kAdminHealth;
}

/// Identity of one logical message. Retransmissions reuse the id (that is
/// what makes receiver-side dedup and reply caching work); `attempt` only
/// distinguishes copies for tracing. `trace` is the query's trace context
/// (stamped into the v2 frame header, so it survives a process boundary);
/// retransmissions carry the original's context.
struct Envelope {
  uint64_t id = 0;
  PeerId from = kInvalidPeer;
  PeerId to = kInvalidPeer;
  MessageKind kind = MessageKind::kQuery;
  int attempt = 0;
  wire::TraceContext trace;
};

// The frame tag byte IS the MessageKind value; keep the two in sync.
static_assert(static_cast<uint8_t>(MessageKind::kAdminHealth) ==
              wire::kMaxMessageTag);

/// Starts a wire frame carrying this envelope (id/from/to/kind become the
/// frame header; `attempt` is bookkeeping, never on the wire — a
/// retransmission is byte-identical to the original, which is what lets
/// receivers dedup by id). Returns the frame start for wire::EndFrame.
inline size_t BeginEnvelopeFrame(const Envelope& env, wire::Buffer* buf) {
  return wire::BeginFrame(buf, static_cast<uint8_t>(env.kind), env.id,
                          env.from, env.to, env.trace);
}

/// Decodes one frame header into an envelope, reporting why it failed
/// (truncation vs a semantic rejection — the split net.frames_truncated /
/// net.frames_rejected counters need the distinction). A v1 frame decodes
/// with an empty trace context.
inline wire::FrameError DecodeEnvelopeFrameEx(wire::Reader* r,
                                              Envelope* env) {
  wire::FrameHeader h;
  const wire::FrameError err = wire::DecodeFrameHeaderEx(r, &h);
  if (err != wire::FrameError::kOk) return err;
  env->id = h.id;
  env->from = h.from;
  env->to = h.to;
  env->kind = static_cast<MessageKind>(h.tag);
  env->trace = h.trace;
  return wire::FrameError::kOk;
}

/// Boolean wrapper for callers that do not need the failure reason.
inline bool DecodeEnvelopeFrame(wire::Reader* r, Envelope* env) {
  return DecodeEnvelopeFrameEx(r, env) == wire::FrameError::kOk;
}

/// A bounded map of recently seen message ids -> small payload (a session
/// index for reply caching, or just presence for answer dedup). FIFO
/// eviction once `capacity` ids are tracked — the window a peer remembers
/// duplicates within.
class DedupWindow {
 public:
  explicit DedupWindow(size_t capacity = 1024) : capacity_(capacity) {}

  /// Returns the value stored for `id`, or nullptr if unseen (or evicted).
  const int64_t* Lookup(uint64_t id) const {
    auto it = seen_.find(id);
    return it == seen_.end() ? nullptr : &it->second;
  }

  /// Records `id` (first sighting wins; re-inserting refreshes nothing).
  /// Returns true when the insert pushed an id out of the window, and
  /// stores that id's value in `*evicted` (with capacity 0 nothing is
  /// kept, so the value just offered is the one forgotten).
  bool Insert(uint64_t id, int64_t value, int64_t* evicted = nullptr) {
    int64_t gone = value;
    if (capacity_ != 0) {
      if (!seen_.emplace(id, value).second) return false;
      order_.push_back(id);
      if (order_.size() <= capacity_) return false;
      auto it = seen_.find(order_.front());
      gone = it->second;
      seen_.erase(it);
      order_.pop_front();
    }
    if (evicted != nullptr) *evicted = gone;
    return true;
  }

  size_t size() const { return seen_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  std::unordered_map<uint64_t, int64_t> seen_;
  std::deque<uint64_t> order_;
};

}  // namespace ripple::net

#endif  // RIPPLE_NET_ENVELOPE_H_
