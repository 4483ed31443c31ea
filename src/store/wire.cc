#include "store/wire.h"

#include <cmath>

namespace ripple {

void EncodeTuple(const Tuple& t, wire::Buffer* buf) {
  buf->PutVarint(t.id);
  EncodePoint(t.key, buf);
}

bool DecodeTuple(wire::Reader* r, Tuple* out) {
  out->id = r->Varint();
  if (!r->ok() || !DecodePoint(r, &out->key)) return false;
  for (int i = 0; i < out->key.dims(); ++i) {
    if (!std::isfinite(out->key[i])) {
      r->Fail();
      return false;
    }
  }
  return true;
}

void EncodeTupleVec(const TupleVec& v, wire::Buffer* buf) {
  buf->PutVarint(v.size());
  for (const Tuple& t : v) EncodeTuple(t, buf);
}

bool DecodeTupleVec(wire::Reader* r, TupleVec* out) {
  const uint64_t count = r->Varint();
  if (!r->ok() || count > r->remaining() / 2) {
    r->Fail();
    return false;
  }
  TupleVec v;
  v.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Tuple t;
    if (!DecodeTuple(r, &t)) return false;
    v.push_back(std::move(t));
  }
  *out = std::move(v);
  return true;
}

}  // namespace ripple
