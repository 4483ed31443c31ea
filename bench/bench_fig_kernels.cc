// Kernel work-profile figure: the per-peer SoA kernels (bounded top-k over
// block-scored columns, column-wise mask dominance) checked against the
// definition-level oracle (tests/oracle), swept over dimensionality d in
// {2, 4, 8, 10} and the three PISA-style score-series shapes (increasing,
// decreasing, random). Not a figure of the paper — it gates the hot-path
// kernels themselves.
//
// Gating (tools/bench_check.py): every kernel exports machine-independent
// work counters (common/kernel_counters.h) that are exact functions of
// (seed, n, d, k, series), reported under the exact_ prefix so the gate
// allows ZERO drift against the committed baseline:
//   exact_topk_tuples_scanned      rows the top-k scan visited
//   exact_topk_heap_pushes         admissions into the bounded queue
//   exact_skyline_tuples_scanned   skyline candidates examined
//   exact_skyline_dominance_cmps   pair tests by the dominance kernel
//   exact_state_band_tuples_scanned   rows the store-side band kernel
//                                  (LocalStore::Skyband over the first
//                                  half, state = the k-band of the second
//                                  half) examined, summed over k = 1, 2
//   exact_state_band_dominance_cmps   its pair tests, summed over k = 1, 2
//   exact_merge_tuples_scanned     MergeBands (k = 1) of the two
//                                  halves' skylines: tuples tested
//   exact_oracle_mismatch          0 iff kernel results byte-match the oracle
// Kernel wall-clock rides along under the informational wall_ prefix
// (never gated).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/kernel_counters.h"
#include "oracle/oracle.h"
#include "store/local_algos.h"
#include "store/local_store.h"

using namespace ripple;
using namespace ripple::bench;

namespace {

constexpr size_t kTopK = 16;
constexpr int kTimedReps = 5;

enum class Shape { kIncreasing, kDecreasing, kRandom };
constexpr Shape kAllSeries[] = {Shape::kIncreasing, Shape::kDecreasing,
                                 Shape::kRandom};

const char* Name(Shape s) {
  switch (s) {
    case Shape::kIncreasing: return "increasing";
    case Shape::kDecreasing: return "decreasing";
    case Shape::kRandom: return "random";
  }
  return "?";
}

/// Rows ordered so the scores SelectTopK consumes arrive in the given
/// series shape — increasing admits every row into the queue (worst case
/// for heap maintenance), decreasing admits only the first k (best case),
/// random is the expected case.
TupleVec ShapedTuples(size_t n, int dims, Shape series,
                      const Scorer& scorer, uint64_t seed) {
  Rng rng(seed);
  TupleVec out = data::MakeUniform(n, dims, &rng);
  if (series == Shape::kRandom) return out;
  std::stable_sort(out.begin(), out.end(),
                   [&](const Tuple& a, const Tuple& b) {
                     return scorer.Score(a.key) < scorer.Score(b.key);
                   });
  if (series == Shape::kDecreasing) std::reverse(out.begin(), out.end());
  return out;
}

bool BitIdentical(const TupleVec& a, const TupleVec& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].key.dims() != b[i].key.dims()) return false;
    for (int d = 0; d < a[i].key.dims(); ++d) {
      const double x = a[i].key[d];
      const double y = b[i].key[d];
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

/// oracle::Skyband(store ∪ state, k) restricted to the store's rows.
TupleVec StoreBandOracle(const TupleVec& store, const TupleVec& state,
                         size_t k) {
  TupleVec all = store;
  all.insert(all.end(), state.begin(), state.end());
  std::vector<uint64_t> ids;
  for (const Tuple& t : store) ids.push_back(t.id);
  std::sort(ids.begin(), ids.end());
  TupleVec out;
  for (const Tuple& t : oracle::Skyband(all, k)) {
    if (std::binary_search(ids.begin(), ids.end(), t.id)) out.push_back(t);
  }
  return out;
}

template <typename Fn>
double TimeMs(const Fn& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kTimedReps; ++rep) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count() /
         kTimedReps;
}

}  // namespace

int main() {
  const BenchConfig config = LoadConfig();
  PrintHeader(config, "Figure K",
              "per-peer kernel work profile: SoA kernels vs the oracle");

  const size_t n = std::min<size_t>(config.tuples, 4096);
  std::printf("  n=%zu k=%zu, d in {2,4,8,10} x 3 series shapes\n", n, kTopK);
  std::printf("  %-22s %12s %14s %12s\n", "case", "soa_topk_ms",
              "soa_skyline_ms", "mismatch");

  uint64_t total_mismatches = 0;
  for (int dims : {2, 4, 8, 10}) {
    Rng wrng(config.seed * 131 + static_cast<uint64_t>(dims));
    std::vector<double> weights(dims);
    for (double& w : weights) w = -wrng.UniformDouble();
    const LinearScorer scorer(weights);
    auto score = [&](const Point& p) { return scorer.Score(p); };
    for (Shape series : kAllSeries) {
      const TupleVec tuples = ShapedTuples(
          n, dims, series, scorer,
          config.seed * 977 + static_cast<uint64_t>(dims) * 3 +
              static_cast<uint64_t>(series));
      const std::string case_id = "kernels/d=" + std::to_string(dims) + "/" +
                                  Name(series);

      // One instrumented pass per kernel: the counters are exact
      // functions of the workload, independent of repetition count.
      ResetKernelCounters();
      const TupleVec topk = SelectTopK(tuples, score, kTopK);
      const KernelCounters topk_work = LocalKernelCounters();
      ResetKernelCounters();
      const TupleVec sky = ComputeSkyline(tuples);
      const KernelCounters sky_work = LocalKernelCounters();
      ResetKernelCounters();

      // Byte-identity against the definition-level oracle.
      uint64_t mismatch = 0;
      if (!BitIdentical(topk, oracle::TopK(tuples, score, kTopK))) {
        ++mismatch;
      }
      if (!BitIdentical(sky, oracle::Skyline(tuples))) ++mismatch;

      // The store-side band kernel: the first half is a peer's store, the
      // second half's k-band the state it received.
      const TupleVec lower(tuples.begin(), tuples.begin() + n / 2);
      const TupleVec upper(tuples.begin() + n / 2, tuples.end());
      LocalStore store;
      store.AddAll(lower);
      KernelCounters band_work;
      for (size_t k : {size_t{1}, size_t{2}}) {
        const TupleVec state = ComputeKSkyband(upper, k);
        ResetKernelCounters();
        const TupleVec band = store.Skyband(state, k);
        band_work.tuples_scanned += LocalKernelCounters().tuples_scanned;
        band_work.dominance_cmps += LocalKernelCounters().dominance_cmps;
        ResetKernelCounters();
        if (!BitIdentical(band, StoreBandOracle(lower, state, k))) {
          ++mismatch;
        }
      }
      const TupleVec sky_lower = ComputeSkyline(lower);
      const TupleVec sky_upper = ComputeSkyline(upper);
      ResetKernelCounters();
      const TupleVec merged = MergeBands(sky_lower, sky_upper, 1);
      const KernelCounters merge_work = LocalKernelCounters();
      ResetKernelCounters();
      if (!BitIdentical(merged, oracle::MergeBands(sky_lower, sky_upper, 1))) {
        ++mismatch;
      }
      total_mismatches += mismatch;

      // Wall clock, informational.
      const double soa_topk_ms =
          TimeMs([&] { (void)SelectTopK(tuples, score, kTopK); });
      const double soa_sky_ms = TimeMs([&] { (void)ComputeSkyline(tuples); });

      Reporter().AddMetric(case_id, "exact_topk_tuples_scanned",
                           static_cast<double>(topk_work.tuples_scanned));
      Reporter().AddMetric(case_id, "exact_topk_heap_pushes",
                           static_cast<double>(topk_work.heap_pushes));
      Reporter().AddMetric(case_id, "exact_skyline_tuples_scanned",
                           static_cast<double>(sky_work.tuples_scanned));
      Reporter().AddMetric(case_id, "exact_skyline_dominance_cmps",
                           static_cast<double>(sky_work.dominance_cmps));
      Reporter().AddMetric(case_id, "exact_state_band_tuples_scanned",
                           static_cast<double>(band_work.tuples_scanned));
      Reporter().AddMetric(case_id, "exact_state_band_dominance_cmps",
                           static_cast<double>(band_work.dominance_cmps));
      Reporter().AddMetric(case_id, "exact_merge_tuples_scanned",
                           static_cast<double>(merge_work.tuples_scanned));
      Reporter().AddMetric(case_id, "exact_oracle_mismatch",
                           static_cast<double>(mismatch));
      Reporter().AddMetric(case_id, "wall_soa_topk_ms", soa_topk_ms);
      Reporter().AddMetric(case_id, "wall_soa_skyline_ms", soa_sky_ms);

      std::printf("  %-22s %12.3f %14.3f %12llu\n",
                  (std::string("d=") + std::to_string(dims) + "/" +
                   Name(series))
                      .c_str(),
                  soa_topk_ms, soa_sky_ms,
                  static_cast<unsigned long long>(mismatch));
    }
  }

  std::printf("  total oracle mismatches: %llu\n",
              static_cast<unsigned long long>(total_mismatches));
  return total_mismatches == 0 ? 0 : 1;
}
