#include "geom/wire.h"

#include <array>
#include <span>
#include <typeinfo>

#include "common/check.h"

namespace ripple {

void EncodePoint(const Point& p, wire::Buffer* buf) {
  buf->PutU8(static_cast<uint8_t>(p.dims()));
  for (int i = 0; i < p.dims(); ++i) buf->PutF64(p[i]);
}

bool DecodePoint(wire::Reader* r, Point* out) {
  const uint8_t dims = r->U8();
  if (!r->ok() || dims > kMaxDims ||
      (r->expected_dims() != 0 && dims != r->expected_dims())) {
    r->Fail();
    return false;
  }
  Point p(dims);
  for (int i = 0; i < dims; ++i) p[i] = r->F64();
  if (!r->ok()) return false;
  *out = p;
  return true;
}

void EncodeRect(const Rect& rect, wire::Buffer* buf) {
  EncodePoint(rect.lo(), buf);
  EncodePoint(rect.hi(), buf);
}

bool DecodeRect(wire::Reader* r, Rect* out) {
  Point lo, hi;
  if (!DecodePoint(r, &lo) || !DecodePoint(r, &hi)) return false;
  // Validate what the Rect constructor checks, so corrupted bytes reject
  // instead of aborting the process.
  if (lo.dims() != hi.dims()) {
    r->Fail();
    return false;
  }
  for (int i = 0; i < lo.dims(); ++i) {
    if (!(lo[i] <= hi[i])) {  // catches NaN too
      r->Fail();
      return false;
    }
  }
  *out = Rect(lo, hi);
  return true;
}

namespace {

constexpr uint8_t kNormL1 = 0;
constexpr uint8_t kNormL2 = 1;
constexpr uint8_t kNormLInf = 2;

constexpr uint8_t kScorerLinear = 1;
constexpr uint8_t kScorerNearest = 2;

}  // namespace

void EncodeNorm(Norm norm, wire::Buffer* buf) {
  switch (norm) {
    case Norm::kL1: buf->PutU8(kNormL1); return;
    case Norm::kL2: buf->PutU8(kNormL2); return;
    case Norm::kLInf: buf->PutU8(kNormLInf); return;
  }
  RIPPLE_CHECK(false && "unknown Norm");
}

bool DecodeNorm(wire::Reader* r, Norm* out) {
  switch (r->U8()) {
    case kNormL1: *out = Norm::kL1; break;
    case kNormL2: *out = Norm::kL2; break;
    case kNormLInf: *out = Norm::kLInf; break;
    default:
      r->Fail();
      return false;
  }
  return r->ok();
}

void EncodeScorer(const Scorer& s, wire::Buffer* buf) {
  if (const auto* linear = dynamic_cast<const LinearScorer*>(&s)) {
    buf->PutU8(kScorerLinear);
    buf->PutVarint(linear->weights().size());
    for (double w : linear->weights()) buf->PutF64(w);
    return;
  }
  if (const auto* nearest = dynamic_cast<const NearestScorer*>(&s)) {
    buf->PutU8(kScorerNearest);
    EncodePoint(nearest->anchor(), buf);
    EncodeNorm(nearest->norm(), buf);
    return;
  }
  RIPPLE_CHECK(false && "scorer type has no wire encoding");
}

std::shared_ptr<const Scorer> DecodeScorer(wire::Reader* r) {
  std::shared_ptr<const Scorer> out;
  DecodeScorer(r, &out);
  return out;
}

namespace {

/// Stores `decoded` in `*out`: over the scorer `*out` holds when nothing
/// else shares it and it is exactly an S, else in a new one.
template <typename S>
bool StoreScorer(S&& decoded, std::shared_ptr<const Scorer>* out) {
  if (out->use_count() == 1 && typeid(**out) == typeid(S)) {
    // Made non-const by make_shared below; `out` is its only owner.
    *const_cast<S*>(static_cast<const S*>(out->get())) = std::move(decoded);
  } else {
    *out = std::make_shared<S>(std::move(decoded));
  }
  return true;
}

}  // namespace

bool DecodeScorer(wire::Reader* r, std::shared_ptr<const Scorer>* out) {
  switch (r->U8()) {
    case kScorerLinear: {
      const uint64_t count = r->Varint();
      // A scorer has 1..kMaxDims weights, one per expected dimension when
      // the reader names them; any other count is corruption, rejected
      // here rather than by LinearScorer's checks.
      const int want = r->expected_dims();
      if (!r->ok() || count == 0 || count > kMaxDims ||
          (want != 0 && count != static_cast<uint64_t>(want))) {
        r->Fail();
        return false;
      }
      std::array<double, kMaxDims> weights;
      for (uint64_t i = 0; i < count; ++i) weights[i] = r->F64();
      if (!r->ok()) return false;
      return StoreScorer(
          LinearScorer(std::span<const double>(weights.data(), count)), out);
    }
    case kScorerNearest: {
      Point anchor;
      Norm norm = Norm::kL2;
      if (!DecodePoint(r, &anchor) || !DecodeNorm(r, &norm)) return false;
      return StoreScorer(NearestScorer(anchor, norm), out);
    }
    default:
      r->Fail();
      return false;
  }
}

}  // namespace ripple
