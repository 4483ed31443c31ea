#ifndef RIPPLE_RIPPLE_SLAB_H_
#define RIPPLE_RIPPLE_SLAB_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ripple {

/// Index-addressed storage for PeerCore's sessions and forwards, the
/// simulator's datagrams in flight and TimerQueue's callbacks. Entries
/// live in one vector and are named by a handle, (generation << 32) |
/// slot. Releasing an entry puts its slot on a free list and moves the
/// slot's generation on, so a handle that outlived its entry (a late
/// response, a lapsed timer, a dedup entry) finds nothing, while the
/// entry's object — with every buffer it holds — is what the next Acquire
/// hands out. Handle 0 is never issued.
///
/// Generations stay below 2^kGenBits, so a handle fits in 54 bits and a
/// driver may pack a few tag bits above it in an int64_t.
template <typename T>
class Slab {
 public:
  using Handle = uint64_t;
  static constexpr int kGenBits = 22;

  /// A free entry, as its last occupant left it (the caller resets what it
  /// uses), and its new handle.
  T& Acquire(Handle* handle) {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.live = true;
    ++live_;
    *handle = uint64_t{s.gen} << 32 | slot;
    return s.value;
  }

  /// The live entry `handle` names, or nullptr when it was released (and
  /// perhaps reused) since.
  T* Find(Handle handle) {
    return const_cast<T*>(std::as_const(*this).Find(handle));
  }
  const T* Find(Handle handle) const {
    const auto slot = static_cast<uint32_t>(handle);
    if (slot >= slots_.size()) return nullptr;
    const Slot& s = slots_[slot];
    if (!s.live || s.gen != static_cast<uint32_t>(handle >> 32)) return nullptr;
    return &s.value;
  }

  /// Frees the live entry `handle` names; its object is kept for reuse.
  void Release(Handle handle) {
    RIPPLE_CHECK(Find(handle) != nullptr && "releasing a stale handle");
    const auto slot = static_cast<uint32_t>(handle);
    Free(slots_[slot]);
    free_.push_back(slot);
    --live_;
  }

  /// Calls f(entry) for every live entry, in slot order.
  template <typename F>
  void ForEachLive(F&& f) {
    for (Slot& s : slots_) {
      if (s.live) f(s.value);
    }
  }
  template <typename F>
  void ForEachLive(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.live) f(s.value);
    }
  }

  /// Calls f(entry) for every object the slab holds, live or free.
  template <typename F>
  void ForEachHeld(F&& f) const {
    for (const Slot& s : slots_) f(s.value);
  }

  /// Releases every live entry; the next Acquires hand out slots in
  /// ascending order again. Objects and their buffers are kept.
  void ReleaseAll() {
    free_.clear();
    for (size_t i = slots_.size(); i > 0; --i) {
      Slot& s = slots_[i - 1];
      if (s.live) Free(s);
      free_.push_back(static_cast<uint32_t>(i - 1));
    }
    live_ = 0;
  }

  size_t live() const { return live_; }
  size_t held() const { return slots_.size(); }

 private:
  struct Slot {
    T value{};
    uint32_t gen = 1;  // never 0, so no handle is 0
    bool live = false;
  };

  /// Ends the slot's occupancy; its handles go stale.
  static void Free(Slot& s) {
    s.live = false;
    if (++s.gen == uint32_t{1} << kGenBits) s.gen = 1;
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  size_t live_ = 0;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_SLAB_H_
