#ifndef RIPPLE_RIPPLE_TIMER_QUEUE_H_
#define RIPPLE_RIPPLE_TIMER_QUEUE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_set>
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
class TimerQueue {
 public:
  struct Event {
    double at = 0;
    std::function<void()> fn;
  };

  /// Queues `fn` at time `at`; it cannot be cancelled.
  void Schedule(double at, std::function<void()> fn) {
    heap_.push(Entry{at, next_seq_++, /*timer=*/false, std::move(fn)});
  }

  /// Queues a cancellable timer at time `at`; returns its handle (never 0).
  uint64_t Arm(double at, std::function<void()> fn) {
    const uint64_t id = next_seq_++;
    heap_.push(Entry{at, id, /*timer=*/true, std::move(fn)});
    live_.insert(id);
    return id;
  }

  /// Revokes a timer; firing, double-cancel and handle 0 are no-ops.
  void Cancel(uint64_t id) { live_.erase(id); }

  /// Pops the earliest live event due at or before `until` into `*out`.
  bool PopDue(double until, Event* out) {
    SkipCancelled();
    if (heap_.empty() || heap_.top().at > until) return false;
    Entry& top = const_cast<Entry&>(heap_.top());
    if (top.timer) live_.erase(top.seq);
    out->at = top.at;
    out->fn = std::move(top.fn);
    heap_.pop();
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
                         : heap_.top().at;
  }

  /// Timers armed and neither fired nor cancelled yet.
  size_t pending() const { return live_.size(); }

 private:
  struct Entry {
    double at;
    uint64_t seq;
    bool timer;
    std::function<void()> fn;
    bool operator>(const Entry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  void SkipCancelled() {
    while (!heap_.empty() && heap_.top().timer &&
           live_.count(heap_.top().seq) == 0) {
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_set<uint64_t> live_;
  uint64_t next_seq_ = 1;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_TIMER_QUEUE_H_
