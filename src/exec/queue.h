#ifndef RIPPLE_EXEC_QUEUE_H_
#define RIPPLE_EXEC_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace ripple::exec {

/// A bounded multi-producer / multi-consumer handoff queue with blocking
/// backpressure — the one admission queue the executor's workers share.
/// Every pushed item is popped by exactly one consumer.
///
/// Semantics:
///  * `Push` blocks while the queue holds `capacity` items (backpressure:
///    the admitting thread stalls instead of buffering unboundedly) and
///    returns false iff the queue was closed while waiting.
///  * `TryPush` never blocks; it returns false when full or closed.
///  * `Pop` blocks until an item or close; returns false only when the
///    queue is closed AND drained, so no accepted item is ever dropped.
///  * `Close` wakes everyone; further pushes fail, pops drain the rest.
///
/// The mutex/condvar pair is deliberately boring: admission happens once
/// per query (milliseconds of work), so lock-free cleverness would buy
/// nothing and cost the queue its obvious correctness.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  bool TryPush(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and drained
    *out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  void Close() {
    std::unique_lock<std::mutex> lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  size_t size() const {
    std::unique_lock<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace ripple::exec

#endif  // RIPPLE_EXEC_QUEUE_H_
