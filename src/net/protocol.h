#ifndef RIPPLE_NET_PROTOCOL_H_
#define RIPPLE_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>

#include "net/envelope.h"
#include "net/peers.h"
#include "queries/range.h"
#include "queries/skyband.h"
#include "queries/skyline.h"
#include "queries/topk.h"
#include "ripple/wire_codec.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace ripple::net {

/// The live overlay serves all four rank-query policies through one
/// socket, so live query frames carry one extra byte the simulator never
/// needs: a policy tag right after the frame header, before the codec's
/// [zigzag r][query][state][area] payload. Response/answer/ack frames
/// are untagged — their message id resolves the policy through the
/// sender's pending-request table.
enum class PolicyTag : uint8_t {
  kTopK = 0,
  kSkyline = 1,
  kSkyband = 2,
  kRange = 3,
};

inline const char* PolicyTagName(PolicyTag t) {
  switch (t) {
    case PolicyTag::kTopK: return "topk";
    case PolicyTag::kSkyline: return "skyline";
    case PolicyTag::kSkyband: return "skyband";
    case PolicyTag::kRange: return "range";
  }
  return "?";
}

inline bool ValidPolicyTag(uint8_t raw) {
  return raw <= static_cast<uint8_t>(PolicyTag::kRange);
}

template <typename Policy>
struct PolicyTagOf;
template <>
struct PolicyTagOf<TopKPolicy> {
  static constexpr PolicyTag value = PolicyTag::kTopK;
};
template <>
struct PolicyTagOf<SkylinePolicy> {
  static constexpr PolicyTag value = PolicyTag::kSkyline;
};
template <>
struct PolicyTagOf<SkybandPolicy> {
  static constexpr PolicyTag value = PolicyTag::kSkyband;
};
template <>
struct PolicyTagOf<RangePolicy> {
  static constexpr PolicyTag value = PolicyTag::kRange;
};

/// Appends one live query frame: `env`'s header, the policy tag byte,
/// then WireCodec's [zigzag r][query][state][area] payload. Clients and
/// daemon forwards both write through here. Returns the frame's size.
template <typename Overlay, typename Policy>
size_t EncodeLiveQuery(const WireCodec<Overlay, Policy>& codec,
                       const Envelope& env,
                       const typename Policy::Query& query,
                       const typename Policy::GlobalState& state,
                       const typename Overlay::Area& area, int64_t r,
                       wire::Buffer* buf) {
  const size_t start = BeginEnvelopeFrame(env, buf);
  buf->PutU8(static_cast<uint8_t>(PolicyTagOf<Policy>::value));
  codec.EncodeQueryPayload(query, state, area, r, buf);
  wire::EndFrame(buf, start);
  return buf->size() - start;
}

/// Message ids must be unique across every process of the overlay for
/// receiver-side dedup and reply caching to stay sound, so each sender
/// namespaces its sequence numbers under its own id: peers under their
/// overlay id, clients under their kClientIdBase-tagged id. No two
/// senders share an id, so no coordination is needed.
inline uint64_t MakeMessageId(PeerId sender, uint32_t seq) {
  return (static_cast<uint64_t>(sender) << 32) | seq;
}

}  // namespace ripple::net

#endif  // RIPPLE_NET_PROTOCOL_H_
