#include "store/local_store.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <type_traits>

#include "common/arena.h"
#include "common/kernel_counters.h"

namespace ripple {

void LocalStore::Add(const Tuple& t) {
  flat_.Append(t);
  // A published index takes the row into its tail while the tail holds
  // fewer than kIndexThreshold rows; the next write clears it, and the
  // next read rebuilds the whole store.
  if (index_ready_.Get() && index_.tail_size() < kIndexThreshold) {
    index_.AppendTail(t);
  } else {
    MarkMutated();
  }
}

void LocalStore::AddAll(const TupleVec& ts) {
  flat_.AppendAll(ts);
  MarkMutated();
}

void LocalStore::AddAll(const LocalStore& other) {
  flat_.AppendAll(other.flat_);
  MarkMutated();
}

void LocalStore::Clear() {
  flat_.Clear();
  MarkMutated();
}

namespace {

/// Serializes the lazy index builds of every store. A build runs once per
/// mutation batch, so the lock is taken only while one is pending.
std::mutex& LazyBuildMutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

static_assert(std::is_nothrow_move_constructible_v<LocalStore>,
              "peer vectors must relocate stores by move, not by copy");

bool LocalStore::ContainsId(uint64_t id) const {
  const std::vector<uint64_t>& ids = flat_.ids();
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

TupleVec LocalStore::ExtractOutside(const Rect& zone, const Rect& domain) {
  std::vector<uint8_t> outside(flat_.size());
  for (size_t i = 0; i < flat_.size(); ++i) {
    outside[i] =
        static_cast<uint8_t>(!zone.ContainsHalfOpen(flat_.PointAt(i), domain));
  }
  TupleVec moved = flat_.ExtractIf(outside);
  MarkMutated();
  return moved;
}

const KdIndex* LocalStore::Index() const {
  if (flat_.size() < kIndexThreshold) return nullptr;
  if (!index_ready_.Get()) {
    std::lock_guard<std::mutex> lock(LazyBuildMutex());
    if (!index_ready_.Get()) {
      index_.Build(flat_);
      index_ready_.Publish();
    }
  }
  return &index_;
}

const store::FlatStore& LocalStore::Select(const Scorer& scorer, double tau,
                                           bool above,
                                           store::BoundedTopK* queue) const {
  if (above) {
    if (const KdIndex* idx = Index()) {
      idx->SelectTopK(scorer, tau, /*inclusive_floor=*/true, queue);
      return idx->rows();
    }
  }
  const size_t n = flat_.size();
  if (n == 0 || queue->k() == 0) return flat_;
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  double* scores = arena.AllocateArray<double>(n);
  scorer.ScoreBlock(flat_.cols().data(), flat_.dims(), n, scores);
  LocalKernelCounters().tuples_scanned += n;
  for (size_t i = 0; i < n; ++i) {
    if (above ? scores[i] >= tau : scores[i] < tau) {
      queue->Insert(scores[i], flat_.id(i), static_cast<uint32_t>(i));
    }
  }
  return flat_;
}

namespace {

/// The queue's rows as Tuples, best first.
TupleVec TuplesBestFirst(const store::FlatStore& rows,
                         const store::BoundedTopK& queue) {
  TupleVec out;
  out.reserve(queue.size());
  for (const store::BoundedTopK::Entry& e : queue.SortedDescending()) {
    out.push_back(rows.TupleAt(e.payload));
  }
  return out;
}

}  // namespace

TupleVec LocalStore::TopKAbove(const Scorer& scorer, size_t k,
                               double tau) const {
  ArenaScope scope(&PerQueryArena());
  store::BoundedTopK queue(k, flat_.size(), &PerQueryArena());
  const store::FlatStore& rows = Select(scorer, tau, true, &queue);
  return TuplesBestFirst(rows, queue);
}

TupleVec LocalStore::BestBelow(const Scorer& scorer, size_t count,
                               double tau) const {
  ArenaScope scope(&PerQueryArena());
  store::BoundedTopK queue(count, flat_.size(), &PerQueryArena());
  const store::FlatStore& rows = Select(scorer, tau, false, &queue);
  return TuplesBestFirst(rows, queue);
}

LocalStore::TopKCount LocalStore::CountTopKAbove(const Scorer& scorer,
                                                 size_t k, double tau) const {
  ArenaScope scope(&PerQueryArena());
  store::BoundedTopK queue(k, flat_.size(), &PerQueryArena());
  Select(scorer, tau, true, &queue);
  return {queue.size(), queue.LowestScore()};
}

LocalStore::TopKCount LocalStore::CountBestBelow(const Scorer& scorer,
                                                 size_t count,
                                                 double tau) const {
  ArenaScope scope(&PerQueryArena());
  store::BoundedTopK queue(count, flat_.size(), &PerQueryArena());
  Select(scorer, tau, false, &queue);
  return {queue.size(), queue.LowestScore()};
}

TupleVec LocalStore::AllAtLeast(const Scorer& scorer, double tau) const {
  TupleVec out;
  if (const KdIndex* idx = Index()) {
    idx->CollectAtLeast(scorer, tau, &out);
  } else {
    const size_t n = flat_.size();
    if (n > 0) {
      Arena& arena = PerQueryArena();
      ArenaScope scope(&arena);
      double* scores = arena.AllocateArray<double>(n);
      scorer.ScoreBlock(flat_.cols().data(), flat_.dims(), n, scores);
      LocalKernelCounters().tuples_scanned += n;
      out.reserve(static_cast<size_t>(std::count_if(
          scores, scores + n, [tau](double s) { return s >= tau; })));
      for (size_t i = 0; i < n; ++i) {
        if (scores[i] >= tau) out.push_back(flat_.TupleAt(i));
      }
    }
  }
  std::sort(out.begin(), out.end(), TupleIdLess());
  return out;
}

TupleVec LocalStore::Within(const Point& center, double radius,
                            Norm norm) const {
  TupleVec out;
  const size_t n = flat_.size();
  if (n == 0) return out;
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  double* scores = arena.AllocateArray<double>(n);
  NearestScorer(center, norm).ScoreBlock(flat_.cols().data(), flat_.dims(), n,
                                         scores);
  // score == -Distance exactly (negation rounds nothing), so this is
  // Distance <= radius, NaN and signed zeros included.
  const double floor = -radius;
  out.reserve(static_cast<size_t>(std::count_if(
      scores, scores + n, [floor](double s) { return s >= floor; })));
  for (size_t i = 0; i < n; ++i) {
    if (scores[i] >= floor) out.push_back(flat_.TupleAt(i));
  }
  return out;
}

TupleVec LocalStore::Skyband(const TupleVec& state, size_t k,
                             const Rect* constraint) const {
  const size_t n = flat_.size();
  if (n == 0 || k == 0) return {};
  const KdIndex* idx = Index();
  const store::FlatStore& rows = idx != nullptr ? idx->rows() : flat_;
  const int dims = rows.dims();
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  // The state tuples that can dominate a stored row: <= the store's
  // upper corner everywhere.
  ArenaColumns dominators(&arena, dims, state.size());
  if (!state.empty()) {
    Point hi;
    if (idx != nullptr) {
      hi = idx->UpperCorner();
    } else {
      hi = rows.PointAt(0);
      for (int c = 0; c < dims; ++c) {
        const double* col = rows.col(c);
        for (size_t i = 1; i < n; ++i) hi[c] = std::max(hi[c], col[i]);
      }
    }
    SelectStateDominators(state, hi, flat_.ids(), constraint, &dominators);
  }
  // Pass 1: the rows inside the constraint, less the k-d nodes that k
  // state tuples dominate whole.
  uint32_t* cands = arena.AllocateArray<uint32_t>(n);
  size_t m = 0;
  if (idx != nullptr) {
    m = idx->CollectBandCandidates(dominators, k, constraint, cands);
  } else {
    CollectRowCandidates(rows, 0, static_cast<uint32_t>(n), constraint,
                         cands, &m);
  }
  // Pass 2: the band among the candidates, each counted against the
  // running band first and the state only when the band leaves it in.
  return BandOfCandidates(rows, cands, m, k, dominators);
}

double LocalStore::MedianAlong(int dim) const {
  RIPPLE_CHECK(!flat_.empty());
  const size_t n = flat_.size();
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  double* coords = arena.AllocateArray<double>(n);
  std::memcpy(coords, flat_.col(dim), n * sizeof(double));
  const size_t mid = n / 2;
  std::nth_element(coords, coords + mid, coords + n);
  return coords[mid];
}

std::optional<Tuple> LocalStore::ArgMin(
    const std::function<double(const Point&)>& cost,
    const std::function<double(const Rect&)>& rect_lower,
    const std::function<bool(const Tuple&)>& admit,
    double* best_cost) const {
  if (const KdIndex* idx = Index()) {
    return idx->ArgMin(cost, rect_lower, admit, best_cost);
  }
  std::optional<Tuple> best;
  double best_c = std::numeric_limits<double>::infinity();
  KernelCounters& kc = LocalKernelCounters();
  for (size_t i = 0; i < flat_.size(); ++i) {
    ++kc.tuples_scanned;
    const Tuple t = flat_.TupleAt(i);
    if (!admit(t)) continue;
    const double c = cost(t.key);
    if (!best.has_value() || c < best_c || (c == best_c && t.id < best->id)) {
      best_c = c;
      best = t;
    }
  }
  if (best_cost != nullptr) *best_cost = best_c;
  return best;
}

}  // namespace ripple
