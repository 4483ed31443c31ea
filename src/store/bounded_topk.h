#ifndef RIPPLE_STORE_BOUNDED_TOPK_H_
#define RIPPLE_STORE_BOUNDED_TOPK_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/kernel_counters.h"

namespace ripple::store {

/// A bounded branch-light top-k queue in the PISA topk_queue mould: a
/// fixed-capacity binary min-heap whose root is the current k-th best
/// entry. Once full, a candidate is admitted only when it beats the root
/// under the deterministic (score desc, id asc) total order — one
/// comparison against the threshold in the common reject case, one
/// sift-down in the admit case. Replaces the copy-and-full-sort selection
/// the scan paths used to do: O(n log k) worst case, O(n) when the data
/// arrives in decreasing-relevance order, and no O(n) candidate copy.
///
/// Ties on score break toward the smaller id, matching the SelectTopK
/// oracle, so indexed and scan paths agree byte-for-byte.
///
/// The heap is an array of min(k, max_inserts) entries, owned by the
/// queue or, on the per-peer kernel paths, carved out of an Arena (the
/// caller's ArenaScope releases it).
class BoundedTopK {
 public:
  struct Entry {
    double score = 0.0;
    uint64_t id = 0;
    /// Caller-owned handle (row index, vector position, ...).
    uint32_t payload = 0;
  };

  explicit BoundedTopK(size_t k) : k_(k), owned_(k) { heap_ = owned_.data(); }
  /// A queue that will see at most `max_inserts` candidates, its heap in
  /// `arena`.
  BoundedTopK(size_t k, size_t max_inserts, Arena* arena)
      : k_(k),
        capacity_(std::min(k, max_inserts)),
        heap_(arena->AllocateArray<Entry>(capacity_)) {}

  BoundedTopK(const BoundedTopK&) = delete;
  BoundedTopK& operator=(const BoundedTopK&) = delete;

  size_t k() const { return k_; }
  size_t size() const { return size_; }
  bool full() const { return size_ >= k_; }

  /// Admission threshold: the k-th best score once full, -inf before.
  double threshold() const {
    return full() && k_ > 0 ? heap_[0].score
                            : -std::numeric_limits<double>::infinity();
  }

  bool WouldAdmit(double score, uint64_t id) const {
    if (k_ == 0) return false;
    if (!full()) return true;
    const Entry& worst = heap_[0];
    return score > worst.score || (score == worst.score && id < worst.id);
  }

  /// Inserts when admissible; returns whether the entry entered the heap.
  bool Insert(double score, uint64_t id, uint32_t payload) {
    if (!WouldAdmit(score, id)) return false;
    ++LocalKernelCounters().heap_pushes;
    if (!full()) {
      RIPPLE_DCHECK(size_ < capacity_);
      heap_[size_++] = {score, id, payload};
      SiftUp(size_ - 1);
      return true;
    }
    heap_[0] = {score, id, payload};
    SiftDown(0);
    return true;
  }

  /// The lowest kept score, as a best-first fold with std::min reads it
  /// off SortedDescending(): among entries of equal lowest score (which
  /// can differ only in the sign of zero) the one with the smallest id.
  /// +inf when empty.
  double LowestScore() const {
    if (size_ == 0) return std::numeric_limits<double>::infinity();
    const Entry* low = &heap_[0];
    for (const Entry& e : std::span<const Entry>(heap_, size_)) {
      if (e.score < low->score || (e.score == low->score && e.id < low->id)) {
        low = &e;
      }
    }
    return low->score;
  }

  /// The kept entries, best first (score desc, id asc). Non-destructive.
  std::vector<Entry> SortedDescending() const {
    std::vector<Entry> out(heap_, heap_ + size_);
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.id < b.id;
    });
    return out;
  }

 private:
  /// Heap order: the WORST entry sits at the root. a "worse than" b under
  /// the (score desc, id asc) total order.
  static bool Worse(const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.id > b.id;
  }

  void SiftUp(size_t i) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Worse(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void SiftDown(size_t i) {
    const size_t n = size_;
    while (true) {
      const size_t l = 2 * i + 1;
      const size_t r = l + 1;
      size_t worst = i;
      if (l < n && Worse(heap_[l], heap_[worst])) worst = l;
      if (r < n && Worse(heap_[r], heap_[worst])) worst = r;
      if (worst == i) break;
      std::swap(heap_[i], heap_[worst]);
      i = worst;
    }
  }

  size_t k_;
  size_t capacity_ = k_;
  std::vector<Entry> owned_;  // the heap, unless it lives in an arena
  Entry* heap_ = nullptr;
  size_t size_ = 0;
};

}  // namespace ripple::store

#endif  // RIPPLE_STORE_BOUNDED_TOPK_H_
