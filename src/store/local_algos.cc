#include "store/local_algos.h"

#include <algorithm>
#include <numeric>

#include "common/arena.h"
#include "geom/dominance.h"

namespace ripple {

namespace {

/// Coordinate sum with the accumulation order every caller shares
/// (dimension-ascending adds), so precomputed sums compare exactly like
/// sums recomputed inside a comparator.
double SumOf(const Tuple& t) {
  double s = 0.0;
  for (int i = 0; i < t.key.dims(); ++i) s += t.key[i];
  return s;
}

bool SortedById(const TupleVec& tuples) {
  return std::is_sorted(tuples.begin(), tuples.end(), TupleIdLess());
}

}  // namespace

TupleVec ComputeKSkyband(TupleVec tuples, size_t k) {
  if (tuples.empty() || k == 0) return {};
  // Each id once (merged states may repeat tuples), laid out as columns
  // in ascending id order for the store kernel's band pass.
  std::sort(tuples.begin(), tuples.end(), TupleIdLess());
  tuples.erase(std::unique(tuples.begin(), tuples.end(),
                           [](const Tuple& a, const Tuple& b) {
                             return a.id == b.id;
                           }),
               tuples.end());
  store::FlatStore rows;
  rows.AppendAll(tuples);
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  uint32_t* cands = arena.AllocateArray<uint32_t>(rows.size());
  std::iota(cands, cands + rows.size(), uint32_t{0});
  const ArenaColumns no_state(&arena, rows.dims(), 0);
  return BandOfCandidates(rows, cands, rows.size(), k, no_state);
}

TupleVec SelectDominators(const TupleVec& sky, size_t max_count) {
  if (sky.size() <= max_count) return sky;
  // Precompute the sums once and select over an index permutation: the
  // comparator sees the exact values the scalar on-the-fly version
  // compared, so the selected set is unchanged.
  std::vector<double> sums(sky.size());
  for (size_t i = 0; i < sky.size(); ++i) sums[i] = SumOf(sky[i]);
  std::vector<uint32_t> order(sky.size());
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + max_count, order.end(),
                   [&](uint32_t a, uint32_t b) { return sums[a] < sums[b]; });
  TupleVec out;
  out.reserve(max_count);
  for (size_t i = 0; i < max_count; ++i) out.push_back(sky[order[i]]);
  return out;
}

TupleVec MergeBands(TupleVec a, const TupleVec& b, size_t k) {
  if (k == 0) return {};
  if (!SortedById(a)) std::sort(a.begin(), a.end(), TupleIdLess());
  if (b.empty()) return a;
  TupleVec b_sorted;
  const TupleVec* bp = &b;
  if (!SortedById(b)) {
    b_sorted = b;
    std::sort(b_sorted.begin(), b_sorted.end(), TupleIdLess());
    bp = &b_sorted;
  }
  const TupleVec& bs = *bp;
  if (a.empty()) return bs;
  const int dims = a[0].key.dims();
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  // b∖a: the ids a holds are skipped by a two-pointer walk over the two
  // id orders, so a tuple in both inputs is counted once, on a's side.
  uint32_t* b_only = arena.AllocateArray<uint32_t>(bs.size());
  size_t nb = 0;
  size_t ai = 0;
  for (size_t i = 0; i < bs.size(); ++i) {
    const uint64_t id = bs[i].id;
    while (ai < a.size() && a[ai].id < id) ++ai;
    if (ai < a.size() && a[ai].id == id) continue;
    b_only[nb++] = static_cast<uint32_t>(i);
  }
  ArenaColumns a_cols(&arena, dims, a.size());
  for (const Tuple& t : a) a_cols.Append(t.key);
  ArenaColumns b_cols(&arena, dims, nb);
  for (size_t i = 0; i < nb; ++i) b_cols.Append(bs[b_only[i]].key);
  KernelCounters& kc = LocalKernelCounters();
  // Fewer than k dominators in a ∪ b∖a: the other side's first, then,
  // only when some but fewer than k were found there, the own side's.
  auto in_band = [&](const Point& p, const ArenaColumns& other,
                     const ArenaColumns& own) {
    ++kc.tuples_scanned;
    const size_t cross = other.CountDominators(p, k);
    if (cross == 0) return true;
    if (cross >= k) return false;
    return own.CountDominators(p, k - cross) < k - cross;
  };
  // Survivors of a, compacted to its front so they stay in id order.
  size_t a_survivors = 0;
  for (Tuple& t : a) {
    if (in_band(t.key, b_cols, a_cols)) a[a_survivors++] = std::move(t);
  }
  a.resize(a_survivors);
  // Survivors of b∖a, counted against all of a: a dominator that a's own
  // pass removed still dominates, and the union counts it.
  size_t b_survivors = 0;
  for (size_t i = 0; i < nb; ++i) {
    if (in_band(bs[b_only[i]].key, a_cols, b_cols)) {
      b_only[b_survivors++] = b_only[i];
    }
  }
  if (b_survivors == 0) return a;
  // Linear merge of the two ascending-id survivor runs.
  TupleVec out;
  out.reserve(a.size() + b_survivors);
  size_t bi = 0;
  for (Tuple& t : a) {
    while (bi < b_survivors && bs[b_only[bi]].id < t.id) {
      out.push_back(bs[b_only[bi++]]);
    }
    out.push_back(std::move(t));
  }
  while (bi < b_survivors) out.push_back(bs[b_only[bi++]]);
  return out;
}

void SelectStateDominators(const TupleVec& state, const Point& hi,
                           const std::vector<uint64_t>& held_ids,
                           const Rect* counted, ArenaColumns* out) {
  if (state.empty()) return;
  const int dims = hi.dims();
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  struct Pick {
    double sum;
    uint64_t id;
    uint32_t index;
  };
  Pick* picks = arena.AllocateArray<Pick>(state.size());
  size_t n = 0;
  for (uint32_t i = 0; i < state.size(); ++i) {
    const Tuple& t = state[i];
    if (t.key.dims() != dims) continue;
    // Only a tuple <= hi everywhere can dominate a row inside the store's
    // bounding box.
    bool below = true;
    for (int c = 0; c < dims && below; ++c) below = t.key[c] <= hi[c];
    if (below) picks[n++] = {SumOf(t), t.id, i};
  }
  if (n == 0) return;
  // Ascending id, then state order. Honest states are already in
  // ascending id order, which makes this one adjacent-pair check.
  auto by_id = [](const Pick& x, const Pick& y) {
    return x.id < y.id || (x.id == y.id && x.index < y.index);
  };
  if (!std::is_sorted(picks, picks + n, by_id)) {
    std::sort(picks, picks + n, by_id);
  }
  // The store counts its own rows: a pick whose id it holds, inside
  // `counted`, is dropped. Each held id is looked up in the id-sorted
  // picks.
  uint8_t* drop = arena.AllocateArray<uint8_t>(n);
  std::fill(drop, drop + n, uint8_t{0});
  for (uint64_t id : held_ids) {
    const Pick* it = std::lower_bound(
        picks, picks + n, id,
        [](const Pick& p, uint64_t v) { return p.id < v; });
    for (; it != picks + n && it->id == id; ++it) {
      const size_t j = static_cast<size_t>(it - picks);
      drop[j] = counted == nullptr || counted->Contains(state[it->index].key);
    }
  }
  // Then each id once, the first in state order.
  size_t m = 0;
  for (size_t j = 0; j < n; ++j) {
    if (drop[j] != 0 || (m > 0 && picks[m - 1].id == picks[j].id)) continue;
    picks[m++] = picks[j];
  }
  std::sort(picks, picks + m, [](const Pick& x, const Pick& y) {
    return x.sum < y.sum || (x.sum == y.sum && x.id < y.id);
  });
  for (size_t i = 0; i < m; ++i) out->Append(state[picks[i].index].key);
}

void CollectRowCandidates(const store::FlatStore& rows, uint32_t begin,
                          uint32_t end, const Rect* constraint,
                          uint32_t* out, size_t* n) {
  LocalKernelCounters().tuples_scanned += end - begin;
  for (uint32_t i = begin; i < end; ++i) {
    if (constraint == nullptr || constraint->Contains(rows.PointAt(i))) {
      out[(*n)++] = i;
    }
  }
}

TupleVec BandOfCandidates(const store::FlatStore& rows, uint32_t* cands,
                          size_t n, size_t k, const ArenaColumns& state) {
  if (n == 0 || k == 0) return {};
  const int dims = rows.dims();
  const std::array<const double*, kMaxDims> cols = rows.cols();
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  // Dominance-compatible order over the candidates: (sum, lexicographic
  // key, id), sums accumulated dimension-ascending like SumOf.
  double* sums = arena.AllocateArray<double>(rows.size());
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = cands[i];
    double s = 0.0;
    for (int c = 0; c < dims; ++c) s += cols[c][r];
    sums[r] = s;
  }
  std::sort(cands, cands + n, [&](uint32_t a, uint32_t b) {
    if (sums[a] != sums[b]) return sums[a] < sums[b];
    for (int c = 0; c < dims; ++c) {
      if (cols[c][a] != cols[c][b]) return cols[c][a] < cols[c][b];
    }
    return rows.id(a) < rows.id(b);
  });
  ArenaColumns band_cols(&arena, dims, n);
  uint32_t* band = arena.AllocateArray<uint32_t>(n);
  size_t band_size = 0;
  KernelCounters& kc = LocalKernelCounters();
  for (size_t i = 0; i < n; ++i) {
    ++kc.tuples_scanned;
    const Point p = rows.PointAt(cands[i]);
    // The running band first: a row it already puts out of the band
    // never reads the state.
    const size_t in_band = band_cols.CountDominators(p, k);
    if (in_band >= k) continue;
    const size_t need = k - in_band;
    if (state.size() > 0 && state.CountDominators(p, need) >= need) continue;
    band_cols.Append(p);
    band[band_size++] = cands[i];
  }
  std::sort(band, band + band_size, [&](uint32_t a, uint32_t b) {
    return rows.id(a) < rows.id(b);
  });
  TupleVec out;
  out.reserve(band_size);
  for (size_t i = 0; i < band_size; ++i) out.push_back(rows.TupleAt(band[i]));
  return out;
}

}  // namespace ripple
