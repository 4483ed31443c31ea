#ifndef RIPPLE_GEOM_WIRE_H_
#define RIPPLE_GEOM_WIRE_H_

#include <memory>

#include "geom/point.h"
#include "geom/rect.h"
#include "geom/scoring.h"
#include "wire/buffer.h"

namespace ripple {

/// Wire codecs for the geometry vocabulary (docs/WIRE.md, "geom
/// payloads"). Encoders never fail; decoders validate everything the
/// value types RIPPLE_CHECK on construction (dimension caps, lo <= hi),
/// fail the reader and return false on bad bytes — corruption becomes a
/// rejected message, never an aborted process. Each *WireSize is the
/// byte count its encoder appends.

/// Point: [u8 dims][dims x f64]. Rejects a dims other than the reader's
/// expected_dims(), when set.
void EncodePoint(const Point& p, wire::Buffer* buf);
bool DecodePoint(wire::Reader* r, Point* out);
inline size_t PointWireSize(const Point& p) { return 1 + 8 * p.dims(); }

/// Rect: lo point, hi point. Rejects mismatched dims and lo > hi.
void EncodeRect(const Rect& rect, wire::Buffer* buf);
bool DecodeRect(wire::Reader* r, Rect* out);
inline size_t RectWireSize(const Rect& rect) {
  return PointWireSize(rect.lo()) + PointWireSize(rect.hi());
}

/// Norm enum as one byte. Rejects unknown values.
void EncodeNorm(Norm norm, wire::Buffer* buf);
bool DecodeNorm(wire::Reader* r, Norm* out);

/// Scorer: [u8 kind][kind-specific payload]. Kind 1 = LinearScorer
/// (varint weight count + f64 weights), kind 2 = NearestScorer (anchor
/// point + norm); a weight count other than the reader's
/// expected_dims(), when set, is rejected. Encoding an unknown Scorer
/// subclass is a programming error (checked); decoding returns null on
/// bad bytes. The decoded scorer is heap-owned — queries carrying one
/// keep it alive via shared_ptr.
void EncodeScorer(const Scorer& s, wire::Buffer* buf);
std::shared_ptr<const Scorer> DecodeScorer(wire::Reader* r);
/// Decodes into `*out`, reusing the scorer it holds when that is the only
/// reference and of the decoded kind (a recycled query's), so a warmed
/// decode allocates nothing. On bad bytes returns false and leaves `*out`
/// as it was.
bool DecodeScorer(wire::Reader* r, std::shared_ptr<const Scorer>* out);

}  // namespace ripple

#endif  // RIPPLE_GEOM_WIRE_H_
