#ifndef RIPPLE_RIPPLE_TIMER_QUEUE_H_
#define RIPPLE_RIPPLE_TIMER_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "ripple/slab.h"

namespace ripple {

/// Callbacks queued on a `double` clock and fired in (time, seq) order,
/// FIFO among ties. The queue keeps no clock of its own: AsyncEngine runs
/// it on virtual time (jumping to each event in turn), PeerDaemon on
/// steady_clock milliseconds (firing whatever is due). Plain events always
/// fire; Arm() returns a handle that Cancel() revokes lazily — the entry
/// stays queued and is skipped when it surfaces, so cancelling is O(1)
/// and never reorders anything.
///
/// The heap holds plain {at, seq, handle} entries; callbacks live in a
/// Slab until their entry leaves the heap, and a timer's handle is its
/// slab handle, so a stale one (its timer fired, or was cancelled and its
/// entry reused) matches nothing.
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
    ++pending_;
    return Push(at, std::move(fn), State::kArmed);
  }

  /// Revokes a timer; firing, double-cancel and handle 0 are no-ops.
  void Cancel(uint64_t handle) {
    Callback* c = callbacks_.Find(handle);
    if (c == nullptr || c->state != State::kArmed) return;
    c->state = State::kCancelled;
    c->fn = nullptr;
    --pending_;
  }

  /// Pops the earliest live event due at or before `until` into `*out`.
  bool PopDue(double until, Event* out) {
    SkipCancelled();
    if (heap_.empty() || heap_.front().at > until) return false;
    const Entry top = PopEntry();
    Callback& c = *callbacks_.Find(top.handle);
    if (c.state == State::kArmed) --pending_;
    out->at = top.at;
    out->fn = std::move(c.fn);
    callbacks_.Release(top.handle);
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
    callbacks_.ForEachLive([](Callback& c) { c.fn = nullptr; });
    callbacks_.ReleaseAll();
    next_seq_ = 0;
    pending_ = 0;
  }

  /// Bytes of capacity the queue holds.
  size_t HeldBytes() const {
    return heap_.capacity() * sizeof(Entry) +
           callbacks_.held() * sizeof(Callback);
  }

 private:
  struct Entry {
    double at;
    uint64_t seq;
    uint64_t handle;
  };
  /// Heap order: a later (time, seq) sinks.
  static bool Later(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  enum class State : uint8_t { kEvent, kArmed, kCancelled };
  struct Callback {
    std::function<void()> fn;
    State state = State::kEvent;
  };

  uint64_t Push(double at, std::function<void()> fn, State state) {
    uint64_t handle;
    Callback& c = callbacks_.Acquire(&handle);
    c.fn = std::move(fn);
    c.state = state;
    heap_.push_back(Entry{at, next_seq_++, handle});
    std::push_heap(heap_.begin(), heap_.end(), Later);
    return handle;
  }

  Entry PopEntry() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    const Entry e = heap_.back();
    heap_.pop_back();
    return e;
  }

  void SkipCancelled() {
    while (!heap_.empty() &&
           callbacks_.Find(heap_.front().handle)->state == State::kCancelled) {
      callbacks_.Release(PopEntry().handle);
    }
  }

  std::vector<Entry> heap_;
  Slab<Callback> callbacks_;
  uint64_t next_seq_ = 0;
  size_t pending_ = 0;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_TIMER_QUEUE_H_
