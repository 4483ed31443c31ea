#ifndef RIPPLE_WIRE_BUFFER_H_
#define RIPPLE_WIRE_BUFFER_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace ripple::wire {

/// A growable byte buffer every wire encoder appends to. Explicit
/// little-endian byte order for the fixed-width encodings, LEB128 varints
/// for counts, zigzag for signed values and bit-exact doubles — so an
/// encode/decode round trip preserves every value exactly (including
/// infinities and the sign of zero), which the engines' determinism
/// contract depends on.
///
/// The storage is sized ahead of the written length: each append reserves
/// its bytes through one capacity check and writes them in place, and the
/// storage grows geometrically from kMinCapacity, so a frame costs a
/// handful of allocations however many fields it carries. Take() hands the
/// storage over trimmed to the written length.
class Buffer {
 public:
  void PutU8(uint8_t v) { *Extend(1) = v; }
  void PutFixed32(uint32_t v) { StoreFixed32(Extend(4), v); }
  void PutFixed64(uint64_t v) {
    uint8_t* p = Extend(8);
    StoreFixed32(p, static_cast<uint32_t>(v));
    StoreFixed32(p + 4, static_cast<uint32_t>(v >> 32));
  }
  /// Unsigned LEB128: 7 value bits per byte, high bit = continuation. The
  /// encoding is minimal (no trailing zero groups), as Reader requires.
  void PutVarint(uint64_t v) {
    if (v < 0x80) {
      PutU8(static_cast<uint8_t>(v));
      return;
    }
    uint8_t tmp[10];
    size_t n = 0;
    while (v >= 0x80) {
      tmp[n++] = static_cast<uint8_t>(v) | 0x80;
      v >>= 7;
    }
    tmp[n++] = static_cast<uint8_t>(v);
    PutBytes(tmp, n);
  }
  /// Zigzag-mapped varint for signed values ((v << 1) ^ (v >> 63)).
  void PutZigzag(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }
  /// The double's IEEE-754 bit pattern as a Fixed64 (exact round trip).
  void PutF64(double v) { PutFixed64(std::bit_cast<uint64_t>(v)); }
  void PutBytes(const uint8_t* data, size_t n) {
    if (n != 0) std::memcpy(Extend(n), data, n);
  }

  /// Overwrites 4 bytes at `offset` in place — how frame encoders patch a
  /// length field once the payload size is known. Requires offset + 4 <=
  /// size().
  void WriteFixed32At(size_t offset, uint32_t v);

  size_t size() const { return size_; }
  size_t capacity() const { return storage_.size(); }
  bool empty() const { return size_ == 0; }
  const uint8_t* data() const { return storage_.data(); }
  std::span<const uint8_t> bytes() const { return {storage_.data(), size_}; }

  /// Empties the buffer, keeping its storage for the next frame.
  void Clear() { size_ = 0; }
  /// Moves the accumulated bytes out, leaving the buffer empty.
  std::vector<uint8_t> Take() {
    storage_.resize(size_);
    size_ = 0;
    return std::exchange(storage_, {});
  }

 private:
  static constexpr size_t kMinCapacity = 64;

  static void StoreFixed32(uint8_t* p, uint32_t v) {
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
  }

  /// Reserves `n` bytes past the written length and returns where they
  /// start.
  uint8_t* Extend(size_t n) {
    if (storage_.size() - size_ < n) Grow(n);
    uint8_t* p = storage_.data() + size_;
    size_ += n;
    return p;
  }
  void Grow(size_t n) {
    storage_.resize(std::max({kMinCapacity, 2 * storage_.size(), size_ + n}));
  }

  std::vector<uint8_t> storage_;  // storage_.size() is the capacity
  size_t size_ = 0;               // bytes written
};

/// Bytes PutVarint(v) appends: one per started group of 7 value bits.
inline size_t VarintSize(uint64_t v) {
  return static_cast<size_t>(std::bit_width(v | 1) + 6) / 7;
}

/// Bytes PutZigzag(v) appends.
inline size_t ZigzagSize(int64_t v) {
  return VarintSize((static_cast<uint64_t>(v) << 1) ^
                    static_cast<uint64_t>(v >> 63));
}

/// Cursor over received bytes. Decoders never trust the wire: every read
/// checks the remaining length and a failed read latches `ok() == false`
/// and returns 0, so decoding a truncated or corrupted buffer degrades to
/// a rejected message instead of undefined behavior. Callers check ok()
/// once at the end (reads after a failure stay failed).
class Reader {
 public:
  Reader(const uint8_t* data, size_t n) : data_(data), end_(n) {}
  explicit Reader(std::span<const uint8_t> bytes)
      : Reader(bytes.data(), bytes.size()) {}

  // The fixed-width reads are inline: frame headers and coordinates are
  // nothing but these, read once per field on every received datagram.
  uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }
  uint32_t Fixed32() {
    if (!Need(4)) return 0;
    const uint8_t* p = data_ + pos_;
    pos_ += 4;
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
  }
  uint64_t Fixed64() {
    const uint64_t lo = Fixed32();
    const uint64_t hi = Fixed32();
    return lo | hi << 32;
  }
  /// A minimal LEB128 varint that fits in 64 bits; anything else (more
  /// than 10 bytes, a tenth byte above 0x01, a trailing zero group) fails.
  uint64_t Varint();
  int64_t Zigzag();
  double F64() { return std::bit_cast<double>(Fixed64()); }
  bool Skip(size_t n);

  bool ok() const { return ok_; }
  /// Latches the failure state (decoders use this for semantic rejections:
  /// bad tag, out-of-range dimension, ...).
  void Fail() { ok_ = false; }

  /// Points read from here must have `dims` coordinates (0, the
  /// default, admits any): a message payload holds points of its
  /// overlay's domain only, and geom's decoders reject the rest.
  void ExpectDims(int dims) { expected_dims_ = dims; }
  int expected_dims() const { return expected_dims_; }

  size_t remaining() const { return end_ - pos_; }
  size_t position() const { return pos_; }
  /// Pointer to the next unread byte (frame walkers slice sub-readers).
  const uint8_t* cursor() const { return data_ + pos_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || end_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t pos_ = 0;
  size_t end_;
  bool ok_ = true;
  int expected_dims_ = 0;
};

}  // namespace ripple::wire

#endif  // RIPPLE_WIRE_BUFFER_H_
