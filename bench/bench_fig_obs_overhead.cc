// Observability overhead: the same seeded top-k workload run twice over
// one MIDAS overlay — once bare, once with a sampled trace mirrored into
// per-peer journals (the docs/OBSERVABILITY.md wire-tracing pipeline at
// its most expensive setting: every query sampled). Not a figure of the
// paper; it gates the cost of this repo's own instrumentation.
//
// Deterministic metrics (messages, answer tuples, span and journal-event
// counts) are seed-stable and gated against baseline like any other
// bench. Wall clock is informational as usual, EXCEPT two ceilings that
// tools/bench_check.py enforces on the same run's measurements, so they
// gate the overhead RATIO of tracing, not absolute machine speed:
//  * `wall_ceiling_overhead_ratio` caps the traced/untraced ratio
//    `wall_overhead_ratio` at kMaxOverheadRatio, tight enough that a 2x
//    slower journal hot path fails the gate;
//  * `wall_ceiling_traced_ms_mean` caps `wall_traced_ms_mean` at 2.5x
//    the untraced wall clock plus 1 ms of slack, a loose backstop.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "obs/journal.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "queries/topk.h"
#include "queries/topk_driver.h"
#include "ripple/engine.h"

using namespace ripple;
using namespace ripple::bench;

namespace {

struct ModeResult {
  double wall_ms_total = 0;
  uint64_t messages = 0;
  uint64_t answers = 0;
};

// One full pass over the workload; `tracer`/`journal` null = bare mode.
ModeResult RunWorkload(const MidasOverlay& overlay, size_t queries, int dims,
                       uint64_t seed, obs::Tracer* tracer,
                       obs::JournalSet* journal) {
  ModeResult out;
  Engine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
  engine.SetSink(obs::Sink(tracer, nullptr, journal));
  Rng rng(seed);
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t q = 0; q < queries; ++q) {
    LinearScorer scorer = RandomPreferenceScorer(dims, &rng);
    QueryRequest<TopKPolicy> req;
    req.initiator = overlay.RandomPeer(&rng);
    req.query = TopKQuery{&scorer, 16};
    req.ripple = RippleParam::Fast();
    // Head-based sampling decision at the initiator: every query sampled
    // (worst case for overhead), odd ids so 0 never collides with
    // "unsampled".
    if (tracer != nullptr) req.trace_id = (seed << 16) + q * 2 + 1;
    const auto result = SeededTopK(overlay, engine, req);
    out.messages += result.stats.messages;
    out.answers += result.answer.size();
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms_total =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

}  // namespace

int main() {
  const BenchConfig config = LoadConfig();
  PrintHeader(config, "Figure O",
              "wall-clock overhead of wire tracing + per-peer journals");

  const size_t peers = config.DefaultNetworkSize();
  const int dims = 4;
  Rng data_rng(config.seed * 7919 + 11);
  const TupleVec tuples =
      data::MakeUniform(std::min<size_t>(config.tuples, 50000), dims,
                        &data_rng);
  const MidasOverlay overlay = BuildMidas(peers, dims, config.seed, tuples);
  const size_t queries = config.queries;

  // Best-of-3 per mode to shave scheduler noise; the two modes run the
  // byte-identical query sequence (same Rng stream), so their
  // deterministic outputs must agree.
  constexpr int kReps = 3;
  double bare_ms = std::numeric_limits<double>::infinity();
  double traced_ms = std::numeric_limits<double>::infinity();
  ModeResult bare, traced;
  uint64_t spans = 0, journal_events = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    bare = RunWorkload(overlay, queries, dims, config.seed, nullptr, nullptr);
    bare_ms = std::min(bare_ms, bare.wall_ms_total);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    obs::Tracer tracer;
    obs::JournalSet journal;
    traced = RunWorkload(overlay, queries, dims, config.seed, &tracer,
                         &journal);
    traced_ms = std::min(traced_ms, traced.wall_ms_total);
    spans = tracer.span_count();
    journal_events = journal.TotalEvents();
  }

  const double bare_mean = bare_ms / static_cast<double>(queries);
  const double traced_mean = traced_ms / static_cast<double>(queries);
  const double ceiling_mean = 2.5 * bare_mean + 1.0;
  // Measured before this ceiling existed, at smoke scale on a 4-core x86
  // host: median ratio 1.21, maximum 1.41 over 30 runs. 2.0 sits above
  // every observed ratio and below twice the median.
  constexpr double kMaxOverheadRatio = 2.0;

  const std::string case_id = "obs/overhead";
  // Deterministic: identical across machines and across the two modes.
  Reporter().AddMetric(case_id, "messages",
                       static_cast<double>(bare.messages));
  Reporter().AddMetric(case_id, "messages_traced",
                       static_cast<double>(traced.messages));
  Reporter().AddMetric(case_id, "answer_tuples",
                       static_cast<double>(bare.answers));
  Reporter().AddMetric(case_id, "trace_spans", static_cast<double>(spans));
  Reporter().AddMetric(case_id, "journal_events",
                       static_cast<double>(journal_events));
  // Wall clock: informational, except the ceiling rules pin
  // wall_traced_ms_mean <= wall_ceiling_traced_ms_mean and
  // wall_overhead_ratio <= wall_ceiling_overhead_ratio.
  Reporter().AddMetric(case_id, "wall_ms_mean", bare_mean);
  Reporter().AddMetric(case_id, "wall_traced_ms_mean", traced_mean);
  Reporter().AddMetric(case_id, "wall_ceiling_traced_ms_mean", ceiling_mean);
  Reporter().AddMetric(case_id, "wall_overhead_ratio",
                       bare_mean > 0 ? traced_mean / bare_mean : 0.0);
  Reporter().AddMetric(case_id, "wall_ceiling_overhead_ratio",
                       kMaxOverheadRatio);

  std::printf(
      "  %zu queries over n=%zu: bare %.4f ms/query, traced %.4f ms/query "
      "(%.2fx, ceiling %.4f)\n"
      "  trace: %llu spans, %llu journal events\n",
      queries, peers, bare_mean, traced_mean,
      bare_mean > 0 ? traced_mean / bare_mean : 0.0, ceiling_mean,
      static_cast<unsigned long long>(spans),
      static_cast<unsigned long long>(journal_events));
  if (bare.messages != traced.messages || bare.answers != traced.answers) {
    std::fprintf(stderr,
                 "bench_fig_obs_overhead: tracing changed the workload "
                 "(messages %llu vs %llu, answers %llu vs %llu)\n",
                 static_cast<unsigned long long>(bare.messages),
                 static_cast<unsigned long long>(traced.messages),
                 static_cast<unsigned long long>(bare.answers),
                 static_cast<unsigned long long>(traced.answers));
    return 1;
  }
  return 0;
}
