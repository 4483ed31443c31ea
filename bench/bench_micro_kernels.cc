// Micro-benchmarks (google-benchmark) for the per-peer kernels every
// distributed query run is built from: local skyline computation, k-d
// index top-k / argmin, a store's write then first read, Z-order
// encode/decompose, phi evaluation, MIDAS overlay maintenance, the SoA
// kernels swept over dimensionality and score-series shape, wire frame
// encode/decode, and the async engine's message path (timer queue, one
// lossy query).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "geom/zorder.h"
#include "net/envelope.h"
#include "overlay/midas/midas.h"
#include "queries/diversify.h"
#include "queries/topk.h"
#include "ripple/timer_queue.h"
#include "ripple/wire_codec.h"
#include "sim/async_engine.h"
#include "store/kd_index.h"
#include "store/local_algos.h"
#include "store/local_store.h"

namespace ripple {
namespace {

TupleVec MakeTuples(size_t n, int dims, uint64_t seed) {
  Rng rng(seed);
  return data::MakeUniform(n, dims, &rng);
}

// Score-series shapes for the SoA kernel sweep: 0 = increasing (every
// row admits into the top-k queue), 1 = decreasing (only the first k
// admit), 2 = random (expected case).
std::vector<double> SweepWeights(int dims) {
  Rng rng(41 + static_cast<uint64_t>(dims));
  std::vector<double> w(dims);
  for (double& x : w) x = -rng.UniformDouble();
  return w;
}

TupleVec ShapedTuples(size_t n, int dims, int series, const Scorer& scorer,
                      uint64_t seed) {
  TupleVec out = MakeTuples(n, dims, seed);
  if (series == 2) return out;
  std::stable_sort(out.begin(), out.end(),
                   [&](const Tuple& a, const Tuple& b) {
                     return scorer.Score(a.key) < scorer.Score(b.key);
                   });
  if (series == 1) std::reverse(out.begin(), out.end());
  return out;
}

void BM_ComputeSkyline(benchmark::State& state) {
  const TupleVec tuples =
      MakeTuples(static_cast<size_t>(state.range(0)), 4, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSkyline(tuples));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ComputeSkyline)->Arg(128)->Arg(1024)->Arg(8192);

// The state merge of the skyline family: the bands of two halves of a
// uniform set, merged into the band of the whole. Args: (n, k).
void BM_MergeBands(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const TupleVec tuples = MakeTuples(n, 4, 23);
  const TupleVec lower =
      ComputeKSkyband(TupleVec(tuples.begin(), tuples.begin() + n / 2), k);
  const TupleVec upper =
      ComputeKSkyband(TupleVec(tuples.begin() + n / 2, tuples.end()), k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeBands(lower, upper, k));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lower.size() + upper.size()));
}
BENCHMARK(BM_MergeBands)->Args({8192, 1})->Args({8192, 2});

void BM_KdIndexBuild(benchmark::State& state) {
  const TupleVec tuples =
      MakeTuples(static_cast<size_t>(state.range(0)), 4, 13);
  for (auto _ : state) {
    KdIndex idx(tuples);
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdIndexBuild)->Arg(256)->Arg(4096);

void BM_KdIndexTopK(benchmark::State& state) {
  const TupleVec tuples =
      MakeTuples(static_cast<size_t>(state.range(0)), 4, 17);
  KdIndex idx(tuples);
  LinearScorer scorer({-0.4, -0.3, -0.2, -0.1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.TopK(scorer, 10));
  }
}
BENCHMARK(BM_KdIndexTopK)->Arg(1024)->Arg(16384);

void BM_KdIndexArgMinPhi(benchmark::State& state) {
  const TupleVec tuples = MakeTuples(4096, 5, 19);
  KdIndex idx(tuples);
  const DivQuery q = MakeDivQuery(
      DiversifyObjective{Point{0.4, 0.4, 0.4, 0.4, 0.4}, 0.5, Norm::kL1},
      TupleVec(tuples.begin(), tuples.begin() + state.range(0)));
  auto cost = [&](const Point& p) { return q.Phi(p); };
  auto lower = [&](const Rect& r) { return q.PhiLowerBound(r); };
  auto admit = [&](const Tuple& t) { return !q.IsExcluded(t.id); };
  for (auto _ : state) {
    double best = 0;
    benchmark::DoNotOptimize(idx.ArgMin(cost, lower, admit, &best));
  }
}
BENCHMARK(BM_KdIndexArgMinPhi)->Arg(2)->Arg(10)->Arg(50);

// One write into an indexed store, then the first read after it (the
// top-k local state): the write path a batch of InsertTuples pays per
// row. Up to kIndexThreshold writes join the index's tail; the next one
// makes that read rebuild the whole store. Every 2 * (kIndexThreshold +
// 1) writes the store is reset, untimed, so it stays near its size: 100,
// 625 and 3,088 rows span a benchmark world's indexed stores.
void BM_StoreInsertThenRead(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const TupleVec base = MakeTuples(n, 4, 79);
  const TupleVec writes = MakeTuples(2 * (LocalStore::kIndexThreshold + 1),
                                     4, 83);
  const LinearScorer scorer({-0.4, -0.3, -0.2, -0.1});
  const double floor = -std::numeric_limits<double>::infinity();
  LocalStore store;
  size_t next = writes.size();
  for (auto _ : state) {
    if (next == writes.size()) {
      state.PauseTiming();
      store.Clear();
      store.AddAll(base);
      benchmark::DoNotOptimize(store.CountTopKAbove(scorer, 10, floor));
      next = 0;
      state.ResumeTiming();
    }
    Tuple t = writes[next++];
    t.id += n;
    store.Add(t);
    benchmark::DoNotOptimize(store.CountTopKAbove(scorer, 10, floor));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreInsertThenRead)->Arg(100)->Arg(625)->Arg(3088);

void BM_ZOrderEncode(benchmark::State& state) {
  ZOrder z(5, Rect::Unit(5));
  Rng rng(23);
  Point p{0.1, 0.9, 0.4, 0.6, 0.2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Encode(p));
  }
}
BENCHMARK(BM_ZOrderEncode);

void BM_ZOrderDecompose(benchmark::State& state) {
  ZOrder z(3, Rect::Unit(3));
  const uint64_t n = z.key_space_size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.DecomposeInterval(n / 7, 5 * n / 7));
  }
}
BENCHMARK(BM_ZOrderDecompose);

void BM_MidasJoin(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    MidasOptions opt;
    opt.dims = 4;
    opt.seed = 29;
    MidasOverlay overlay(opt);
    state.ResumeTiming();
    while (overlay.NumPeers() < static_cast<size_t>(state.range(0))) {
      overlay.Join();
    }
    benchmark::DoNotOptimize(overlay.NumPeers());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MidasJoin)->Arg(1024)->Arg(8192);

// --- SoA kernels: dims x series sweep -------------------------------------
// Args: {dims, series} with dims in {2,4,8,10}, series 0/1/2 as above.

void BM_SelectTopKSoA(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  const int series = static_cast<int>(state.range(1));
  const LinearScorer scorer(SweepWeights(dims));
  const TupleVec tuples = ShapedTuples(4096, dims, series, scorer, 43);
  auto score = [&](const Point& p) { return scorer.Score(p); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectTopK(tuples, score, 16));
  }
  state.SetItemsProcessed(state.iterations() * tuples.size());
}

void BM_ComputeSkylineSoA(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  const int series = static_cast<int>(state.range(1));
  const LinearScorer scorer(SweepWeights(dims));
  const TupleVec tuples = ShapedTuples(2048, dims, series, scorer, 47);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSkyline(tuples));
  }
  state.SetItemsProcessed(state.iterations() * tuples.size());
}

void SweepArgs(benchmark::internal::Benchmark* b) {
  for (int dims : {2, 4, 8, 10}) {
    for (int series : {0, 1, 2}) b->Args({dims, series});
  }
}
BENCHMARK(BM_SelectTopKSoA)->Apply(SweepArgs);
BENCHMARK(BM_ComputeSkylineSoA)->Apply(SweepArgs);

// --- Wire frame encode/decode ---------------------------------------------
// One query frame plus one answer frame carrying state.range(0) tuples —
// the datagrams every hop of a distributed top-k run exchanges.

void BM_FrameEncode(benchmark::State& state) {
  MidasOptions opt;
  opt.dims = 4;
  opt.seed = 53;
  MidasOverlay overlay(opt);
  for (int i = 0; i < 15; ++i) overlay.Join();
  const TopKPolicy policy;
  const WireCodec<MidasOverlay, TopKPolicy> codec(&overlay, &policy);
  const LinearScorer scorer({-0.4, -0.3, -0.2, -0.1});
  const TopKQuery q{&scorer, 16, 0.0};
  const TopKState g{4, 0.5};
  const TupleVec answer =
      MakeTuples(static_cast<size_t>(state.range(0)), 4, 59);
  const net::Envelope qenv{7, 1, 2, net::MessageKind::kQuery, 0};
  const net::Envelope aenv{7, 2, 1, net::MessageKind::kAnswer, 0};
  wire::Buffer buf;
  size_t bytes = 0;
  for (auto _ : state) {
    buf.Clear();
    bytes = codec.EncodeQueryMessage(qenv, q, g, overlay.FullArea(), 3, &buf);
    bytes += codec.EncodeAnswerMessage(aenv, answer, &buf);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_FrameEncode)->Arg(16)->Arg(256);

void BM_FrameDecode(benchmark::State& state) {
  MidasOptions opt;
  opt.dims = 4;
  opt.seed = 53;
  MidasOverlay overlay(opt);
  for (int i = 0; i < 15; ++i) overlay.Join();
  const TopKPolicy policy;
  const WireCodec<MidasOverlay, TopKPolicy> codec(&overlay, &policy);
  const LinearScorer scorer({-0.4, -0.3, -0.2, -0.1});
  const TopKQuery q{&scorer, 16, 0.0};
  const TopKState g{4, 0.5};
  const TupleVec answer =
      MakeTuples(static_cast<size_t>(state.range(0)), 4, 59);
  wire::Buffer qbuf;
  codec.EncodeQueryMessage({7, 1, 2, net::MessageKind::kQuery, 0}, q, g,
                           overlay.FullArea(), 3, &qbuf);
  wire::Buffer abuf;
  codec.EncodeAnswerMessage({7, 2, 1, net::MessageKind::kAnswer, 0}, answer,
                            &abuf);
  for (auto _ : state) {
    wire::Reader qr(qbuf.bytes());
    net::Envelope env;
    TopKQuery qd{};
    TopKState gd{};
    MidasOverlay::Area area;
    int64_t hops = 0;
    bool ok = net::DecodeEnvelopeFrame(&qr, &env) &&
              codec.DecodeQueryPayload(&qr, &qd, &gd, &area, &hops);
    wire::Reader ar(abuf.bytes());
    TupleVec ad;
    ok = ok && net::DecodeEnvelopeFrame(&ar, &env) &&
         codec.DecodeAnswerPayload(&ar, &ad);
    benchmark::DoNotOptimize(ok);
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<int64_t>(qbuf.size() + abuf.size()));
}
BENCHMARK(BM_FrameDecode)->Arg(16)->Arg(256);

// --- The async engine's message path ------------------------------------

// One batch of retransmission timers the way a lossy query uses them: arm,
// cancel most when their responses arrive, let the rest fire.
void BM_TimerQueueArmCancelFire(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(61);
  std::vector<double> at(n);
  for (double& t : at) t = rng.UniformDouble() * 64.0;
  TimerQueue q;
  std::vector<uint64_t> handles(n);
  int fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      handles[i] = q.Arm(at[i], [&fired] { ++fired; });
    }
    for (int i = 0; i < n; i += 4) q.Schedule(at[i], [&fired] { ++fired; });
    for (int i = 0; i < n; ++i) {
      if (i % 8 != 0) q.Cancel(handles[i]);
    }
    q.RunDue(std::numeric_limits<double>::infinity());
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TimerQueueArmCancelFire)->Arg(64)->Arg(1024);

// One top-k query (r = 2: a slow ring around a fast fringe) on a 1,024-peer
// MIDAS overlay through the discrete-event engine, under 2% loss and 1%
// duplication: encode, transport, event queue, timers, dedup and retries.
void BM_AsyncTopKLossy(benchmark::State& state) {
  MidasOptions opt;
  opt.dims = 4;
  opt.seed = 67;
  opt.split_rule = MidasSplitRule::kDataMedian;
  MidasOverlay overlay(opt);
  for (const Tuple& t : MakeTuples(8192, 4, 71)) overlay.InsertTuple(t);
  while (overlay.NumPeers() < 1024) overlay.Join();
  const AsyncEngine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
  const LinearScorer scorer({-0.4, -0.3, -0.2, -0.1});
  Rng rng(73);
  const PeerId initiator = overlay.RandomPeer(&rng);
  uint64_t seed = 0;
  uint64_t messages = 0;
  for (auto _ : state) {
    const auto result = engine.Run(
        {.initiator = initiator,
         .query = TopKQuery{&scorer, 10},
         .ripple = RippleParam::Hops(2),
         .retry = {.max_retries = 8},
         .fault = {.loss_rate = 0.02, .dup_rate = 0.01,
                   .seed = 1 + seed++ % 16}});
    benchmark::DoNotOptimize(result.answer.data());
    messages += result.stats.messages;
  }
  state.counters["messages"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AsyncTopKLossy);

void BM_MidasRoute(benchmark::State& state) {
  MidasOptions opt;
  opt.dims = 4;
  opt.seed = 31;
  MidasOverlay overlay(opt);
  while (overlay.NumPeers() < 8192) overlay.Join();
  Rng rng(37);
  const auto live = overlay.LivePeers();
  for (auto _ : state) {
    Point p{rng.UniformDouble(), rng.UniformDouble(), rng.UniformDouble(),
            rng.UniformDouble()};
    uint64_t hops = 0;
    benchmark::DoNotOptimize(
        overlay.RouteFrom(live[rng.UniformU64(live.size())], p, &hops));
  }
}
BENCHMARK(BM_MidasRoute);

}  // namespace
}  // namespace ripple

BENCHMARK_MAIN();
