// Ablation A8: per-peer load distribution. The paper's congestion metric
// is the MEAN number of queries a peer processes when n uniform queries
// are issued; this ablation exposes the SKEW. RIPPLE's pruning (and the
// seeded initiation at score peaks) concentrates work on the peers owning
// the promising areas, so the maximum load exceeds the mean by orders of
// magnitude — the flip side of low total congestion.
//
// The measurement runs entirely on the obs::Profiler attached to the
// engine (span counts per peer), so its numbers are the same shape any
// profile export (ripple_cli run --profile-out, WriteProfileJson) reports.

#include <algorithm>

#include "bench_common.h"
#include "obs/profile.h"
#include "queries/topk.h"
#include "queries/topk_driver.h"
#include "ripple/engine.h"

using namespace ripple;
using namespace ripple::bench;

int main() {
  const BenchConfig config = LoadConfig();
  PrintHeader(config, "Ablation A8",
              "per-peer load skew under uniform top-k queries "
              "(NBA-like, d=6, k=10, ripple-fast)");
  Rng data_rng(config.seed * 7919 + 37);
  const TupleVec nba = data::MakeNbaLike(22000, 6, &data_rng);

  const char* cols[6] = {"mean", "p99", "max", "peak/mean", "gini", "idle%"};
  std::vector<std::string> xs;
  std::vector<Series> series(6);
  for (int i = 0; i < 6; ++i) series[i].name = cols[i];

  for (size_t n : config.NetworkSizes()) {
    const MidasOverlay overlay = BuildMidas(n, 6, config.seed + n, nba);
    Engine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
    obs::Profiler profiler;
    profiler.SetPeerUniverse(overlay.NumPeers());
    engine.SetProfiler(&profiler);
    Rng rng(config.seed ^ n);
    const size_t queries = std::max<size_t>(config.queries, 64);
    for (size_t q = 0; q < queries; ++q) {
      const LinearScorer scorer = RandomPreferenceScorer(6, &rng);
      const TopKQuery query{&scorer, 10};
      (void)SeededTopK(overlay, engine,
                       {.initiator = overlay.RandomPeer(&rng),
                        .query = query});
    }
    const obs::SkewStats skew = profiler.Skew(&obs::PeerLoad::spans);
    // p99 via the sorted per-peer span loads (SkewStats keeps only the
    // extremes; the panel wants one interior percentile too).
    std::vector<uint64_t> load;
    load.reserve(skew.peers);
    for (const obs::Hotspot& h :
         profiler.TopN(&obs::PeerLoad::spans, skew.peers)) {
      load.push_back(h.load.spans);
    }
    std::sort(load.begin(), load.end());
    // Nearest-rank p99 of the per-peer loads.
    const uint64_t p99 =
        load.empty() ? 0 : load[(load.size() * 99 + 99) / 100 - 1];
    const double pct = 100.0 / static_cast<double>(queries);
    xs.push_back(std::to_string(n));
    series[0].values.push_back(skew.mean * pct);
    series[1].values.push_back(static_cast<double>(p99) * pct);
    series[2].values.push_back(static_cast<double>(skew.max) * pct);
    series[3].values.push_back(skew.peak_to_mean);
    series[4].values.push_back(skew.gini);
    series[5].values.push_back(100.0 * skew.idle_fraction);
  }
  PrintPanel("load as % of queries processed per peer", "network size", xs,
             series);
  std::printf("\nmean is the paper's congestion / n; max shows the hot "
              "peak-region peers that every seeded query touches.\n"
              "peak/mean and gini quantify the skew the profile export "
              "reports for any workload.\n");
  return 0;
}
