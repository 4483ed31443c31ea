#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "baselines/div_baseline.h"
#include "baselines/dsl.h"
#include "baselines/ssp.h"
#include "common/env.h"
#include "queries/diversify_driver.h"
#include "queries/skyline.h"
#include "queries/skyline_driver.h"
#include "queries/topk.h"
#include "queries/topk_driver.h"
#include "ripple/engine.h"

// Build provenance stamped into BENCH_<suite>.json (defined by
// bench/CMakeLists.txt at configure time; fallbacks keep non-CMake builds
// compiling).
#ifndef RIPPLE_GIT_SHA
#define RIPPLE_GIT_SHA "unknown"
#endif
#ifndef RIPPLE_BUILD_TYPE
#define RIPPLE_BUILD_TYPE "unknown"
#endif

namespace ripple::bench {

BenchConfig LoadConfig() {
  BenchConfig c;
  c.min_log_n = static_cast<int>(GetEnvInt("RIPPLE_BENCH_MIN_LOG_N", 10));
  c.max_log_n = static_cast<int>(GetEnvInt("RIPPLE_BENCH_MAX_LOG_N", 13));
  c.queries = static_cast<size_t>(GetEnvInt("RIPPLE_BENCH_QUERIES", 32));
  c.div_queries =
      static_cast<size_t>(GetEnvInt("RIPPLE_BENCH_DIV_QUERIES", 2));
  c.nets = static_cast<size_t>(GetEnvInt("RIPPLE_BENCH_NETS", 2));
  c.tuples = static_cast<size_t>(GetEnvInt("RIPPLE_BENCH_TUPLES", 100000));
  c.seed = static_cast<uint64_t>(GetEnvInt("RIPPLE_BENCH_SEED", 1));
  return c;
}

namespace {

/// The process-wide reporter. Before PrintHeader, a placeholder collects
/// any early AddMetric calls; PrintHeader replaces it with the real one
/// (suite + provenance) and folds the placeholder's cases over.
std::unique_ptr<obs::BenchReporter> g_reporter;

void FlushAtExit() { FlushBenchReport(); }

obs::BenchReporter MakeReporter(const BenchConfig& config,
                                const std::string& figure) {
  obs::BenchMeta meta;
  // "Ablation A8" -> ablations suite; "Figure 4" (and everything else)
  // -> figs. One file per suite, shared by all that suite's binaries.
  meta.suite =
      figure.rfind("Ablation", 0) == 0 ? "ablations" : "figs";
  meta.binary = obs::Slug(figure);
  meta.git_sha = RIPPLE_GIT_SHA;
  meta.build_type = RIPPLE_BUILD_TYPE;
  meta.seed = config.seed;
  meta.config = {
      {"min_log_n", static_cast<double>(config.min_log_n)},
      {"max_log_n", static_cast<double>(config.max_log_n)},
      {"queries", static_cast<double>(config.queries)},
      {"div_queries", static_cast<double>(config.div_queries)},
      {"nets", static_cast<double>(config.nets)},
      {"tuples", static_cast<double>(config.tuples)},
  };
  return obs::BenchReporter(std::move(meta));
}

}  // namespace

obs::BenchReporter& Reporter() {
  if (g_reporter == nullptr) {
    obs::BenchMeta placeholder;
    placeholder.suite = "figs";
    placeholder.binary = "unnamed";
    g_reporter = std::make_unique<obs::BenchReporter>(std::move(placeholder));
  }
  return *g_reporter;
}

void FlushBenchReport() {
  if (g_reporter == nullptr) return;
  const std::string dir = GetEnvString("RIPPLE_BENCH_JSON_DIR", ".");
  const Status status = g_reporter->WriteMerged(dir);
  if (!status.ok()) {
    std::fprintf(stderr, "BENCH json: %s\n", status.ToString().c_str());
  }
}

void PrintHeader(const BenchConfig& config, const std::string& figure,
                 const std::string& description) {
  obs::BenchReporter fresh = MakeReporter(config, figure);
  if (g_reporter != nullptr) {
    // Early metrics were recorded under the placeholder prefix; re-home
    // them (id is "<old-binary>/<case>", keep the case part).
    for (const auto& [id, metrics] : g_reporter->cases()) {
      const size_t slash = id.find('/');
      const std::string case_id =
          slash == std::string::npos ? id : id.substr(slash + 1);
      for (const auto& [name, value] : metrics) {
        fresh.AddMetric(case_id, name, value);
      }
    }
  }
  g_reporter = std::make_unique<obs::BenchReporter>(std::move(fresh));
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit(FlushAtExit);
  }
  std::printf("==============================================================="
              "=========\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("Config (Table 1, scaled): overlays 2^%d..2^%d, %zu queries x "
              "%zu networks per point, %zu synthetic tuples, seed %llu\n",
              config.min_log_n, config.max_log_n, config.queries, config.nets,
              config.tuples, static_cast<unsigned long long>(config.seed));
  std::printf("Scale up with RIPPLE_BENCH_MAX_LOG_N / RIPPLE_BENCH_QUERIES / "
              "RIPPLE_BENCH_NETS / RIPPLE_BENCH_TUPLES.\n");
  std::printf("==============================================================="
              "=========\n");
}

void PrintPanel(const std::string& title, const std::string& x_label,
                const std::vector<std::string>& x_values,
                const std::vector<Series>& series) {
  obs::BenchReporter& reporter = Reporter();
  const std::string panel = obs::Slug(title);
  for (size_t row = 0; row < x_values.size(); ++row) {
    for (const Series& s : series) {
      if (row < s.values.size()) {
        reporter.AddMetric(panel + "/x=" + x_values[row], s.name,
                           s.values[row]);
      }
    }
  }
  const std::string csv_dir = GetEnvString("RIPPLE_BENCH_CSV", "");
  if (!csv_dir.empty()) {
    std::vector<std::string> names;
    std::vector<std::vector<double>> values;
    for (const Series& s : series) {
      names.push_back(s.name);
      values.push_back(s.values);
    }
    const Status status = reporter.WritePanelCsv(csv_dir, title, x_label,
                                                 x_values, names, values);
    if (!status.ok()) {
      std::fprintf(stderr, "RIPPLE_BENCH_CSV: %s\n",
                   status.ToString().c_str());
    }
  }
  std::printf("\n-- %s --\n", title.c_str());
  std::printf("%14s", x_label.c_str());
  for (const Series& s : series) {
    std::printf("%16s", s.name.c_str());
  }
  std::printf("\n");
  for (size_t row = 0; row < x_values.size(); ++row) {
    std::printf("%14s", x_values[row].c_str());
    for (const Series& s : series) {
      if (row < s.values.size()) {
        std::printf("%16.2f", s.values[row]);
      } else {
        std::printf("%16s", "-");
      }
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

void ReportQueryPoint(const std::string& x,
                      const std::vector<std::string>& names,
                      const StatsAccumulator* accs, const obs::Histogram* wall,
                      const obs::Profiler* profs, size_t count) {
  obs::BenchReporter& reporter = Reporter();
  for (size_t i = 0; i < count; ++i) {
    const std::string id =
        "query/" + x + "/" + (i < names.size() ? names[i] : "?");
    reporter.AddMetric(id, "latency_hops_mean", accs[i].MeanLatency());
    reporter.AddMetric(id, "congestion_mean", accs[i].MeanCongestion());
    reporter.AddMetric(id, "messages_mean", accs[i].MeanMessages());
    reporter.AddMetric(id, "tuples_mean", accs[i].MeanTuplesShipped());
    reporter.AddMetric(id, "bytes_on_wire_mean", accs[i].MeanBytesOnWire());
    if (wall != nullptr && wall[i].count() > 0) {
      reporter.AddMetric(id, "wall_ms_p50", wall[i].Percentile(50));
      reporter.AddMetric(id, "wall_ms_p95", wall[i].Percentile(95));
      reporter.AddMetric(id, "wall_ms_p99", wall[i].Percentile(99));
    }
    if (profs != nullptr) {
      const obs::SkewStats skew = profs[i].Skew(&obs::PeerLoad::spans);
      if (skew.total > 0) {
        reporter.AddMetric(id, "peak_peer_load",
                           static_cast<double>(skew.max));
        reporter.AddMetric(id, "load_gini", skew.gini);
      }
    }
  }
}

bool HistSummariesEnabled() { return GetEnvInt("RIPPLE_BENCH_HIST", 0) != 0; }

void PrintStatsSummary(const std::string& title,
                       const std::vector<std::string>& names,
                       const StatsAccumulator* accs, size_t count) {
  if (!HistSummariesEnabled()) return;
  std::printf("\n-- %s: percentiles (p50/p90/p99/max) --\n", title.c_str());
  static constexpr struct {
    const char* label;
    uint64_t QueryStats::* field;
  } kFields[] = {
      {"latency", &QueryStats::latency_hops},
      {"congestion", &QueryStats::peers_visited},
      {"messages", &QueryStats::messages},
      {"tuples", &QueryStats::tuples_shipped},
  };
  for (size_t i = 0; i < count; ++i) {
    const StatsAccumulator& acc = accs[i];
    std::printf("%16s", i < names.size() ? names[i].c_str() : "?");
    for (const auto& f : kFields) {
      std::printf("  %s %llu/%llu/%llu/%llu", f.label,
                  static_cast<unsigned long long>(acc.Percentile(f.field, 50)),
                  static_cast<unsigned long long>(acc.Percentile(f.field, 90)),
                  static_cast<unsigned long long>(acc.Percentile(f.field, 99)),
                  static_cast<unsigned long long>(acc.Percentile(f.field,
                                                                 100)));
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

MidasOverlay BuildMidas(size_t peers, int dims, uint64_t seed,
                        const TupleVec& tuples, bool border_patterns) {
  MidasOptions opt;
  opt.dims = dims;
  opt.seed = seed;
  opt.border_pattern_links = border_patterns;
  // Data-bearing experiments use load-balancing median splits (real MIDAS
  // deployments balance storage); the data must be present while the
  // overlay grows so splits can follow it.
  opt.split_rule = MidasSplitRule::kDataMedian;
  MidasOverlay overlay(opt);
  for (const Tuple& t : tuples) overlay.InsertTuple(t);
  while (overlay.NumPeers() < peers) overlay.Join();
  return overlay;
}

CanOverlay BuildCan(size_t peers, int dims, uint64_t seed,
                    const TupleVec& tuples) {
  CanOptions opt;
  opt.dims = dims;
  opt.seed = seed;
  CanOverlay overlay(opt);
  while (overlay.NumPeers() < peers) overlay.Join();
  for (const Tuple& t : tuples) overlay.InsertTuple(t);
  return overlay;
}

BatonOverlay BuildBaton(size_t peers, int dims, const TupleVec& tuples) {
  BatonOverlay overlay(peers, BatonOptions{.dims = dims});
  overlay.RebalanceToData(tuples);
  for (const Tuple& t : tuples) overlay.InsertTuple(t);
  return overlay;
}

LinearScorer RandomPreferenceScorer(int dims, Rng* rng) {
  std::vector<double> weights(dims);
  double sum = 0.0;
  for (double& w : weights) {
    w = 0.05 + rng->UniformDouble();
    sum += w;
  }
  // Negative normalized weights: maximizing the score minimizes the
  // weighted attribute sum (0 = best orientation in all datasets).
  for (double& w : weights) w = -w / sum;
  return LinearScorer(weights);
}

DivWorkload MakeDivWorkload(const TupleVec& tuples, size_t k, double lambda,
                            Rng* rng) {
  DivWorkload w;
  w.objective.query = tuples[rng->UniformU64(tuples.size())].key;
  w.objective.lambda = lambda;
  w.objective.norm = Norm::kL1;
  // Initial set: k distinct random tuples (the "as simple as retrieving k
  // random tuples" initialization of Section 6.3), fixed per query so that
  // every method starts identically.
  std::vector<size_t> picks;
  while (picks.size() < k) {
    const size_t i = rng->UniformU64(tuples.size());
    if (std::find(picks.begin(), picks.end(), i) == picks.end()) {
      picks.push_back(i);
    }
  }
  for (size_t i : picks) w.initial.push_back(tuples[i]);
  return w;
}

namespace {

/// Milliseconds elapsed since `t0` on the steady clock — the wall metric
/// the wall[] histograms observe (reported, never regression-gated).
double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

void RunTopKFourWay(const MidasOverlay& overlay, size_t k, size_t queries,
                    uint64_t seed, FourWay* out) {
  const int delta = overlay.MaxDepth();
  const RippleParam rs[4] = {RippleParam::Fast(), RippleParam::Hops(delta / 3),
                             RippleParam::Hops(2 * delta / 3),
                             RippleParam::Slow()};
  Engine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
  for (int i = 0; i < 4; ++i) out->prof[i].SetPeerUniverse(overlay.NumPeers());
  Rng rng(seed);
  for (size_t q = 0; q < queries; ++q) {
    const LinearScorer scorer = RandomPreferenceScorer(overlay.dims(), &rng);
    const TopKQuery query{&scorer, k};
    const PeerId initiator = overlay.RandomPeer(&rng);
    for (int i = 0; i < 4; ++i) {
      engine.SetSink(obs::Sink(nullptr, &out->prof[i], nullptr));
      const auto t0 = std::chrono::steady_clock::now();
      const auto result = SeededTopK(overlay, engine,
                                     {.initiator = initiator,
                                      .query = query,
                                      .ripple = rs[i]});
      out->wall[i].Observe(MsSince(t0));
      out->acc[i].Add(result.stats);
    }
  }
}

void RunSkylineMethods(size_t peers, int dims, const TupleVec& tuples,
                       size_t queries, uint64_t seed, SkylinePoint* out) {
  // RIPPLE over MIDAS runs with the Section 5.2 border-pattern
  // optimization, as in the paper's skyline evaluation.
  const MidasOverlay midas =
      BuildMidas(peers, dims, seed, tuples, /*border_patterns=*/true);
  const CanOverlay can = BuildCan(peers, dims, seed + 1, tuples);
  const BatonOverlay baton = BuildBaton(peers, dims, tuples);
  Engine<MidasOverlay, SkylinePolicy> engine(&midas, SkylinePolicy{});
  out->prof[0].SetPeerUniverse(midas.NumPeers());
  out->prof[1].SetPeerUniverse(midas.NumPeers());
  Rng rng(seed ^ 0x5bd1e995);
  for (size_t q = 0; q < queries; ++q) {
    const PeerId m_init = midas.RandomPeer(&rng);
    const PeerId c_init = can.RandomPeer(&rng);
    const PeerId b_init = baton.RandomPeer(&rng);
    engine.SetSink(obs::Sink(nullptr, &out->prof[0], nullptr));
    auto t0 = std::chrono::steady_clock::now();
    out->acc[0].Add(SeededSkyline(midas, engine,
                                  {.initiator = m_init,
                                   .ripple = RippleParam::Fast()})
                        .stats);
    out->wall[0].Observe(MsSince(t0));
    engine.SetSink(obs::Sink(nullptr, &out->prof[1], nullptr));
    t0 = std::chrono::steady_clock::now();
    out->acc[1].Add(SeededSkyline(midas, engine,
                                  {.initiator = m_init,
                                   .ripple = RippleParam::Slow()})
                        .stats);
    out->wall[1].Observe(MsSince(t0));
    // The baselines run outside the RIPPLE engine, so only their wall
    // clock and QueryStats are observable — their profilers stay empty.
    t0 = std::chrono::steady_clock::now();
    out->acc[2].Add(RunDslSkyline(can, c_init).stats);
    out->wall[2].Observe(MsSince(t0));
    t0 = std::chrono::steady_clock::now();
    out->acc[3].Add(RunSspSkyline(baton, b_init).stats);
    out->wall[3].Observe(MsSince(t0));
  }
}

void RunDivMethods(size_t peers, int dims, const TupleVec& tuples, size_t k,
                   double lambda, size_t queries, uint64_t seed,
                   DivPoint* out) {
  const MidasOverlay midas = BuildMidas(peers, dims, seed, tuples);
  const CanOverlay can = BuildCan(peers, dims, seed + 1, tuples);
  out->prof[0].SetPeerUniverse(midas.NumPeers());
  out->prof[1].SetPeerUniverse(midas.NumPeers());
  Rng rng(seed ^ 0x2545f491);
  DiversifyOptions options;
  options.k = k;
  options.max_iters = 2;
  // The elaborate §6.3 initialization: k single-tuple queries per method
  // (forced to the same trajectory below), as in the paper's cost profile.
  options.service_init = true;
  for (size_t q = 0; q < queries; ++q) {
    const DivWorkload w = MakeDivWorkload(tuples, k, lambda, &rng);
    const PeerId m_init = midas.RandomPeer(&rng);
    const PeerId c_init = can.RandomPeer(&rng);
    RippleDivService<MidasOverlay> fast(
        &midas, {.initiator = m_init, .ripple = RippleParam::Fast()});
    RippleDivService<MidasOverlay> slow(
        &midas, {.initiator = m_init, .ripple = RippleParam::Slow()});
    fast.mutable_engine()->SetSink(obs::Sink(nullptr, &out->prof[0], nullptr));
    slow.mutable_engine()->SetSink(obs::Sink(nullptr, &out->prof[1], nullptr));
    CanFloodDivService flood(&can, c_init);
    SingleTupleService* measured[3] = {&fast, &slow, &flood};
    for (int m = 0; m < 3; ++m) {
      CentralizedDivService reference(&tuples);
      ForcedResultService forced(measured[m], &reference);
      const auto t0 = std::chrono::steady_clock::now();
      out->acc[m].Add(Diversify(&forced, w.objective, w.initial, options)
                          .stats);
      out->wall[m].Observe(MsSince(t0));
    }
  }
}

}  // namespace ripple::bench
