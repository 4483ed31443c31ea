#ifndef RIPPLE_SIM_EVENT_SIM_H_
#define RIPPLE_SIM_EVENT_SIM_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "common/check.h"
#include "ripple/timer_queue.h"

namespace ripple {

/// A minimal discrete-event scheduler: a TimerQueue run on virtual time.
/// Events fire in timestamp order (FIFO among ties), each event is an
/// arbitrary callback, and the clock only moves when events fire.
/// Deliveries (Schedule) and cancellable timers (Arm) share one (time,
/// seq) order. Deterministic given deterministic callbacks.
class EventSimulator {
 public:
  using Clock = double;

  Clock now() const { return now_; }
  size_t events_processed() const { return processed_; }

  /// Schedules `fn` to run `delay` time units from now (delay >= 0).
  void Schedule(Clock delay, std::function<void()> fn) {
    RIPPLE_CHECK(delay >= 0);
    queue_.Schedule(now_ + delay, std::move(fn));
  }

  /// Arms a cancellable one-shot timer `delay` units from now.
  uint64_t Arm(Clock delay, std::function<void()> fn) {
    RIPPLE_CHECK(delay >= 0);
    return queue_.Arm(now_ + delay, std::move(fn));
  }

  /// Revokes a timer; firing and double-cancel are harmless no-ops.
  void Cancel(uint64_t id) { queue_.Cancel(id); }

  /// Runs events until the queue drains or Stop() is called. Returns the
  /// final clock value.
  Clock Run() {
    stopped_ = false;
    TimerQueue::Event e;
    while (!stopped_ &&
           queue_.PopDue(std::numeric_limits<double>::infinity(), &e)) {
      RIPPLE_DCHECK(e.at >= now_);
      now_ = e.at;
      ++processed_;
      e.fn();
    }
    return now_;
  }

  /// Ends the current Run() after the in-flight event returns; pending
  /// events stay queued (a later Run() would resume them). Used by the
  /// async engine once the root query completed — any surviving events are
  /// lapsed retry timers with nothing left to do.
  void Stop() { stopped_ = true; }

 private:
  TimerQueue queue_;
  Clock now_ = 0;
  size_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace ripple

#endif  // RIPPLE_SIM_EVENT_SIM_H_
