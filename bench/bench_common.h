#ifndef RIPPLE_BENCH_BENCH_COMMON_H_
#define RIPPLE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "geom/scoring.h"
#include "net/metrics.h"
#include "obs/bench_report.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "overlay/baton/baton.h"
#include "overlay/can/can.h"
#include "overlay/midas/midas.h"
#include "queries/diversify.h"
#include "store/tuple.h"

namespace ripple::bench {

/// Scale knobs for the figure benches, read from the environment. The
/// paper runs 65,536 queries over 16 networks of up to 131,072 peers; the
/// defaults here keep the full suite in laptop territory while preserving
/// curve shapes. Raise them to approach the paper's scale:
///
///   RIPPLE_BENCH_MAX_LOG_N   largest overlay 2^x     (default 13 -> 8192)
///   RIPPLE_BENCH_MIN_LOG_N   smallest overlay 2^x    (default 10 -> 1024)
///   RIPPLE_BENCH_QUERIES     queries per data point  (default 32)
///   RIPPLE_BENCH_DIV_QUERIES diversification queries (default 2)
///   RIPPLE_BENCH_NETS        networks per data point (default 2)
///   RIPPLE_BENCH_TUPLES      synthetic tuples        (default 100000)
///   RIPPLE_BENCH_SEED        master seed             (default 1)
///
/// Output destinations:
///
///   RIPPLE_BENCH_JSON_DIR    directory receiving BENCH_<suite>.json
///                            (default "."); see docs/OBSERVABILITY.md
///   RIPPLE_BENCH_CSV         directory receiving per-panel CSVs under
///                            <dir>/<suite>/ (unset = no CSV)
struct BenchConfig {
  int min_log_n = 10;
  int max_log_n = 13;
  size_t queries = 32;
  size_t div_queries = 2;
  size_t nets = 2;
  size_t tuples = 100000;
  uint64_t seed = 1;

  std::vector<size_t> NetworkSizes() const {
    std::vector<size_t> out;
    for (int x = min_log_n; x <= max_log_n; ++x) {
      out.push_back(size_t{1} << x);
    }
    return out;
  }
  size_t DefaultNetworkSize() const {
    // Table 1's default is 2^14; scaled down to the harness maximum.
    return size_t{1} << std::min(max_log_n, 14);
  }
};

BenchConfig LoadConfig();

/// Prints the experiment banner: figure id, what the paper shows, and the
/// Table 1 configuration in effect. Also initializes the process-wide
/// BenchReporter: the suite is derived from the figure id ("Ablation ..."
/// -> ablations, anything else -> figs), the binary prefix is the slug of
/// the figure id, and the merged BENCH_<suite>.json is flushed to
/// RIPPLE_BENCH_JSON_DIR at process exit.
void PrintHeader(const BenchConfig& config, const std::string& figure,
                 const std::string& description);

/// The process-wide bench result sink (valid after PrintHeader; before it,
/// a placeholder reporter is used and its cases are folded into the real
/// one at PrintHeader time). All BENCH_<suite>.json and result-CSV
/// emission must flow through this reporter — tools/lint_docs.sh
/// enforces it.
obs::BenchReporter& Reporter();

/// Writes the merged BENCH_<suite>.json now (also happens automatically at
/// exit). Exposed so tests can flush without exiting.
void FlushBenchReport();

/// One plotted line: a method/parameter setting across the x sweep.
struct Series {
  std::string name;
  std::vector<double> values;
};

/// Prints one metric panel (latency or congestion) as an aligned table,
/// one row per x value, one column per series — the same rows the paper's
/// figures plot. Every cell is also recorded in the Reporter() as case
/// `<slug-of-title>/x=<x>` with one metric per series, and when
/// RIPPLE_BENCH_CSV names a directory the panel is written as CSV to
/// <dir>/<suite>/<binary>-<slug-of-title>.csv for plotting.
void PrintPanel(const std::string& title, const std::string& x_label,
                const std::vector<std::string>& x_values,
                const std::vector<Series>& series);

/// Records one x point of a query sweep in the Reporter() as cases
/// `query/<x>/<series-name>`, one per series. Deterministic metrics
/// (gated by tools/bench_check.py): latency_hops_mean, congestion_mean,
/// messages_mean, tuples_mean, and — when the matching profiler saw any
/// spans — peak_peer_load and load_gini. Wall-clock metrics (informational
/// only, never gated): wall_ms_p50/p95/p99 from the matching histogram.
/// `wall` and `profs` may be null; `count` bounds all three arrays.
void ReportQueryPoint(const std::string& x,
                      const std::vector<std::string>& names,
                      const StatsAccumulator* accs, const obs::Histogram* wall,
                      const obs::Profiler* profs, size_t count);

/// True when RIPPLE_BENCH_HIST=1: the figure benches then follow their
/// mean panels with nearest-rank percentile summaries (p50/p90/p99/max
/// per cost metric). Off by default, so default bench output stays
/// byte-identical to a build without the observability layer.
bool HistSummariesEnabled();

/// Prints the percentile summary block for one batch of accumulators
/// (one row per series name, the four QueryStats costs as columns).
/// No-op unless HistSummariesEnabled().
void PrintStatsSummary(const std::string& title,
                       const std::vector<std::string>& names,
                       const StatsAccumulator* accs, size_t count);

/// Builders ------------------------------------------------------------------

MidasOverlay BuildMidas(size_t peers, int dims, uint64_t seed,
                        const TupleVec& tuples,
                        bool border_patterns = false);
CanOverlay BuildCan(size_t peers, int dims, uint64_t seed,
                    const TupleVec& tuples);
BatonOverlay BuildBaton(size_t peers, int dims, const TupleVec& tuples);

/// Per-query top-k scorers: random non-negative preference weights applied
/// with negative sign (smaller coordinates are better in all datasets).
LinearScorer RandomPreferenceScorer(int dims, Rng* rng);

/// A diversification workload: query point near a random tuple plus a
/// deterministic initial set of k tuples (the same for every method, per
/// the paper's fairness setup).
struct DivWorkload {
  DiversifyObjective objective;
  TupleVec initial;
};
DivWorkload MakeDivWorkload(const TupleVec& tuples, size_t k, double lambda,
                            Rng* rng);

/// Sweep runners -------------------------------------------------------------
///
/// Each point struct carries, besides the QueryStats accumulators, one
/// per-query wall-clock histogram (milliseconds, steady clock) and one
/// per-peer load profiler per series; the RIPPLE-engine series feed the
/// profiler (baselines leave theirs empty). ReportQueryPoint turns all
/// three into BENCH_<suite>.json metrics.

/// Figures 4-6: top-k under the four canonical ripple settings
/// r in {0, Delta/3, 2*Delta/3, Delta}. Index order matches
/// kTopKVariantNames.
inline constexpr const char* kTopKVariantNames[4] = {"r=0", "r=D/3", "r=2D/3",
                                                     "r=D"};
struct FourWay {
  StatsAccumulator acc[4];
  obs::Histogram wall[4];
  obs::Profiler prof[4];
};
void RunTopKFourWay(const MidasOverlay& overlay, size_t k, size_t queries,
                    uint64_t seed, FourWay* out);

/// Figures 7-8: skyline methods. Index order matches kSkylineMethodNames.
inline constexpr const char* kSkylineMethodNames[4] = {
    "ripple-fast", "ripple-slow", "dsl(can)", "ssp(baton)"};
struct SkylinePoint {
  StatsAccumulator acc[4];
  obs::Histogram wall[4];
  obs::Profiler prof[4];
};
void RunSkylineMethods(size_t peers, int dims, const TupleVec& tuples,
                       size_t queries, uint64_t seed, SkylinePoint* out);

/// Figures 9-12: diversification methods. Index order matches
/// kDivMethodNames. All methods are driven through the paper's
/// forced-result fairness device, so they walk identical greedy
/// trajectories and the stats isolate network cost.
inline constexpr const char* kDivMethodNames[3] = {"ripple-fast",
                                                   "ripple-slow",
                                                   "baseline(can)"};
struct DivPoint {
  StatsAccumulator acc[3];
  obs::Histogram wall[3];
  obs::Profiler prof[3];
};
void RunDivMethods(size_t peers, int dims, const TupleVec& tuples, size_t k,
                   double lambda, size_t queries, uint64_t seed,
                   DivPoint* out);

}  // namespace ripple::bench

#endif  // RIPPLE_BENCH_BENCH_COMMON_H_
