#ifndef RIPPLE_RIPPLE_TIMER_QUEUE_H_
#define RIPPLE_RIPPLE_TIMER_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace ripple {

/// Callbacks queued on a `double` clock and fired in (time, seq) order,
/// FIFO among ties. The queue keeps no clock of its own: EventSimulator
/// runs it on virtual time (jumping to each event in turn), PeerDaemon on
/// steady_clock milliseconds (firing whatever is due). Plain events always
/// fire; Arm() returns a handle that Cancel() revokes lazily — the entry
/// stays queued and is skipped when it surfaces, so cancelling is O(1)
/// and never reorders anything.
///
/// The heap holds plain {at, seq, slot} entries; callbacks live in a slab
/// of slots recycled once their entry leaves the heap. A handle names its
/// slot and the slot's generation, which moves on at every recycle, so a
/// stale handle (its timer fired, or was cancelled and its slot reused)
/// matches nothing.
class TimerQueue {
 public:
  struct Event {
    double at = 0;
    std::function<void()> fn;
  };

  /// Queues `fn` at time `at`; it cannot be cancelled.
  void Schedule(double at, std::function<void()> fn) {
    Push(at, std::move(fn), State::kEvent);
  }

  /// Queues a cancellable timer at time `at`; returns its handle (never 0).
  uint64_t Arm(double at, std::function<void()> fn) {
    const uint32_t slot = Push(at, std::move(fn), State::kArmed);
    ++pending_;
    return uint64_t{slots_[slot].gen} << 32 | slot;
  }

  /// Revokes a timer; firing, double-cancel and handle 0 are no-ops.
  void Cancel(uint64_t handle) {
    const auto slot = static_cast<uint32_t>(handle);
    if (slot >= slots_.size()) return;
    Slot& s = slots_[slot];
    if (s.gen != static_cast<uint32_t>(handle >> 32) ||
        s.state != State::kArmed) {
      return;
    }
    s.state = State::kCancelled;
    s.fn = nullptr;
    --pending_;
  }

  /// Pops the earliest live event due at or before `until` into `*out`.
  bool PopDue(double until, Event* out) {
    SkipCancelled();
    if (heap_.empty() || heap_.front().at > until) return false;
    const Entry top = PopEntry();
    Slot& s = slots_[top.slot];
    if (s.state == State::kArmed) --pending_;
    out->at = top.at;
    out->fn = std::move(s.fn);
    Release(top.slot);
    return true;
  }

  /// Fires, in order, every live event due at or before `now`. Callbacks
  /// may queue or cancel further events.
  void RunDue(double now) {
    Event e;
    while (PopDue(now, &e)) e.fn();
  }

  /// Time of the earliest live event; +infinity when none is queued.
  double NextAt() {
    SkipCancelled();
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : heap_.front().at;
  }

  /// Timers armed and neither fired nor cancelled yet.
  size_t pending() const { return pending_; }

  /// Drops every queued event and restarts the sequence, so a reused
  /// queue orders events exactly as a new one would. Capacity is kept;
  /// every outstanding handle goes stale.
  void Clear() {
    heap_.clear();
    free_.clear();
    for (size_t i = slots_.size(); i > 0; --i) {
      slots_[i - 1].fn = nullptr;
      Release(static_cast<uint32_t>(i - 1));
    }
    next_seq_ = 0;
    pending_ = 0;
  }

  /// Bytes of capacity the queue holds.
  size_t HeldBytes() const {
    return heap_.capacity() * sizeof(Entry) +
           slots_.capacity() * sizeof(Slot) +
           free_.capacity() * sizeof(uint32_t);
  }

 private:
  struct Entry {
    double at;
    uint64_t seq;
    uint32_t slot;
  };
  /// Heap order: a later (time, seq) sinks.
  static bool Later(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  enum class State : uint8_t { kEvent, kArmed, kCancelled };
  struct Slot {
    std::function<void()> fn;
    uint32_t gen = 1;  // never 0, so no handle is 0
    State state = State::kEvent;
  };

  uint32_t Push(double at, std::function<void()> fn, State state) {
    uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.state = state;
    heap_.push_back(Entry{at, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later);
    return slot;
  }

  Entry PopEntry() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    const Entry e = heap_.back();
    heap_.pop_back();
    return e;
  }

  /// The slot's entry left the heap: invalidate its handles, reuse it.
  void Release(uint32_t slot) {
    uint32_t& gen = slots_[slot].gen;
    if (++gen == 0) gen = 1;
    free_.push_back(slot);
  }

  void SkipCancelled() {
    while (!heap_.empty()) {
      if (slots_[heap_.front().slot].state != State::kCancelled) return;
      Release(PopEntry().slot);
    }
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  uint64_t next_seq_ = 0;
  size_t pending_ = 0;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_TIMER_QUEUE_H_
