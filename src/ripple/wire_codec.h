#ifndef RIPPLE_RIPPLE_WIRE_CODEC_H_
#define RIPPLE_RIPPLE_WIRE_CODEC_H_

#include <cstddef>
#include <cstdint>

#include "net/envelope.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace ripple {

/// Serializes the four message kinds RIPPLE engines exchange (docs/WIRE.md):
///
///   query    payload = [zigzag r][query][global state][area]
///   response payload = [local state]            (one state per frame; a
///                      response datagram is a concatenation of frames all
///                      sharing the request's message id)
///   answer   payload = [answer]
///   ack      payload = empty (a bare frame header)
///
/// Both the recursive and the async engine charge bytes through this one
/// class, so their bytes_on_wire agree: same policy, same overlay, same
/// payload bytes. All Encode* return the size of the frame just appended;
/// the *Size methods return it without encoding. Decode*Payload assume
/// the caller already consumed the frame header (net::DecodeEnvelopeFrame)
/// and is positioned at the payload; the caller owns verifying the
/// frame's declared length against the bytes actually consumed. They
/// reject any point (tuple keys, constraint boxes, range centers,
/// scorers) whose dims differ from the overlay's: merges would read a
/// shorter point's missing coordinates as 0.
template <typename Overlay, typename Policy>
class WireCodec {
 public:
  using Query = typename Policy::Query;
  using LocalState = typename Policy::LocalState;
  using GlobalState = typename Policy::GlobalState;
  using Answer = typename Policy::Answer;
  using Area = typename Overlay::Area;

  WireCodec(const Overlay* overlay, const Policy* policy)
      : overlay_(overlay), policy_(policy) {}

  size_t EncodeQueryMessage(const net::Envelope& env, const Query& q,
                            const GlobalState& g, const Area& area,
                            int64_t r, wire::Buffer* buf) const {
    const size_t start = net::BeginEnvelopeFrame(env, buf);
    EncodeQueryPayload(q, g, area, r, buf);
    wire::EndFrame(buf, start);
    return buf->size() - start;
  }
  /// The query payload alone, for framings that prefix it (the live
  /// overlay's policy tag, net/protocol.h).
  void EncodeQueryPayload(const Query& q, const GlobalState& g,
                          const Area& area, int64_t r,
                          wire::Buffer* buf) const {
    buf->PutZigzag(r);
    policy_->EncodeQuery(q, buf);
    policy_->EncodeState(g, buf);
    overlay_->EncodeArea(area, buf);
  }
  bool DecodeQueryPayload(wire::Reader* r, Query* q, GlobalState* g,
                          Area* area, int64_t* hops) const {
    r->ExpectDims(overlay_->dims());
    *hops = r->Zigzag();
    return r->ok() && policy_->DecodeQuery(r, q) &&
           policy_->DecodeState(r, g) && overlay_->DecodeArea(r, area);
  }

  size_t EncodeResponseFrame(const net::Envelope& env, const LocalState& s,
                             wire::Buffer* buf) const {
    const size_t start = net::BeginEnvelopeFrame(env, buf);
    policy_->EncodeState(s, buf);
    wire::EndFrame(buf, start);
    return buf->size() - start;
  }
  bool DecodeResponsePayload(wire::Reader* r, LocalState* s) const {
    r->ExpectDims(overlay_->dims());
    return policy_->DecodeState(r, s);
  }

  size_t EncodeAnswerMessage(const net::Envelope& env, const Answer& a,
                             wire::Buffer* buf) const {
    const size_t start = net::BeginEnvelopeFrame(env, buf);
    policy_->EncodeAnswer(a, buf);
    wire::EndFrame(buf, start);
    return buf->size() - start;
  }
  bool DecodeAnswerPayload(wire::Reader* r, Answer* a) const {
    r->ExpectDims(overlay_->dims());
    return policy_->DecodeAnswer(r, a);
  }

  size_t EncodeAckMessage(const net::Envelope& env, wire::Buffer* buf) const {
    const size_t start = net::BeginEnvelopeFrame(env, buf);
    wire::EndFrame(buf, start);
    return buf->size() - start;
  }

  // Frame sizes without encoding, for the engine that prices messages
  // instead of shipping them. Each equals what the matching Encode*
  // above returns: the header is fixed-width, and the payload sizes come
  // from the size functions beside the payload encoders.

  /// What EncodeQuery appends for `q`, measured in `scratch` (encoded
  /// once: every query frame of a run carries the same query bytes).
  size_t QueryWireSize(const Query& q, wire::Buffer* scratch) const {
    scratch->Clear();
    policy_->EncodeQuery(q, scratch);
    return scratch->size();
  }
  /// EncodeQueryMessage's size, given QueryWireSize's `query_bytes`.
  size_t QueryMessageSize(size_t query_bytes, const GlobalState& g,
                          const Area& area, int64_t r) const {
    return wire::kFrameHeaderSize + wire::ZigzagSize(r) + query_bytes +
           policy_->StateWireSize(g) + overlay_->AreaWireSize(area);
  }
  size_t ResponseFrameSize(const LocalState& s) const {
    return wire::kFrameHeaderSize + policy_->StateWireSize(s);
  }
  size_t AnswerMessageSize(const Answer& a) const {
    return wire::kFrameHeaderSize + policy_->AnswerWireSize(a);
  }

 private:
  const Overlay* overlay_;
  const Policy* policy_;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_WIRE_CODEC_H_
