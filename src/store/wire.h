#ifndef RIPPLE_STORE_WIRE_H_
#define RIPPLE_STORE_WIRE_H_

#include "geom/wire.h"
#include "store/tuple.h"
#include "wire/buffer.h"

namespace ripple {

/// Wire codecs for tuples (docs/WIRE.md, "store payloads").

/// Tuple: [varint id][point key]. Decoding rejects a non-finite key
/// coordinate: a NaN never blocks dominance and breaks the strict weak
/// order the kernels sort by, and no encoder emits one.
void EncodeTuple(const Tuple& t, wire::Buffer* buf);
bool DecodeTuple(wire::Reader* r, Tuple* out);

/// TupleVec: [varint count][count x tuple]. The count is sanity-bounded
/// by the remaining buffer (every tuple takes at least 2 bytes), so a
/// corrupted count rejects instead of allocating.
void EncodeTupleVec(const TupleVec& v, wire::Buffer* buf);
bool DecodeTupleVec(wire::Reader* r, TupleVec* out);

}  // namespace ripple

#endif  // RIPPLE_STORE_WIRE_H_
