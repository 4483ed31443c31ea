#include "wire/buffer.h"

#include "common/check.h"

namespace ripple::wire {

void Buffer::WriteFixed32At(size_t offset, uint32_t v) {
  RIPPLE_CHECK(offset + 4 <= size_);
  StoreFixed32(storage_.data() + offset, v);
}

uint64_t Reader::Varint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (!Need(1)) return 0;
    const uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) != 0) continue;
    // Only the canonical encoding decodes, so every accepted value
    // re-encodes to the bytes it came from: the tenth byte carries bit 63
    // alone, and a zero group never ends a multi-byte varint.
    if ((shift == 63 && byte > 0x01) || (shift != 0 && byte == 0)) break;
    return v;
  }
  ok_ = false;  // overlong, over 64 bits or non-minimal: not a valid varint
  return 0;
}

int64_t Reader::Zigzag() {
  const uint64_t v = Varint();
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

bool Reader::Skip(size_t n) {
  if (!Need(n)) return false;
  pos_ += n;
  return true;
}

}  // namespace ripple::wire
