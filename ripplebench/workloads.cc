#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>

#include "cache/query_cache.h"
#include "common/check.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "exec/batch.h"
#include "exec/compile.h"
#include "exec/executor.h"
#include "exec/workload.h"
#include "geom/scoring.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "overlay/midas/midas.h"
#include "queries/skyline_driver.h"
#include "queries/topk_driver.h"
#include "ripple/engine.h"
#include "sim/async_engine.h"
#include "trace.h"

namespace ripplebench {
namespace {

using ripple::AsyncEngine;
using ripple::Engine;
using ripple::LinearScorer;
using ripple::LocalStore;
using ripple::MidasOverlay;
using ripple::PeerId;
using ripple::QueryRequest;
using ripple::QueryStats;
using ripple::RangePolicy;
using ripple::RangeQuery;
using ripple::Rng;
using ripple::Scorer;
using ripple::SkybandPolicy;
using ripple::SkybandQuery;
using ripple::SkylinePolicy;
using ripple::SkylineQuery;
using ripple::TopKPolicy;
using ripple::TopKQuery;
using ripple::Tuple;
using ripple::TupleVec;

constexpr int kDims = 4;
constexpr uint64_t kWorldSeed = 1;
/// Executor pool size on `ingest-cache`.
constexpr int kWorkers = 2;

struct Scale {
  size_t peers;
  size_t tuples;          // after set-up, the ingest probe included
  size_t probe_tuples;    // inserted into the built overlay during set-up
  int setup_reps;         // set-up is timed this often; the median counts
  size_t lossy_periods;   // 9-query periods per round on `topk-lossy`
  size_t ingest_batch;    // tuples per ingest round
  size_t cache_groups;    // locality groups of 4 per pass
};

constexpr Scale kFull{8192, 50000, 10000, 5, 10, 100, 256};
constexpr Scale kTiny{256, 4000, 500, 1, 2, 50, 4};

// --- seeds ---------------------------------------------------------------

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

enum Salt : uint64_t { kDataSalt = 1, kOverlaySalt, kIngestSalt, kRoundSalt };

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return SplitMix(SplitMix(seed) ^ (salt * 0xd6e8feb86659fd93ULL));
}

uint64_t RoundSeed(uint64_t seed, size_t round) {
  return SplitMix(SubSeed(seed, kRoundSalt) + round);
}

// --- small helpers -------------------------------------------------------

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return ripple::obs::NearestRankPercentile(v, p);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Fingerprint(const TupleVec& answer) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Tuple& t : answer) h = SplitMix(h ^ t.id);
  return h ^ answer.size();
}

std::vector<ripple::exec::WorkloadItem> Parse(const std::string& text) {
  auto parsed = ripple::exec::ParseWorkload(text);
  RIPPLE_CHECK(parsed.ok());
  return std::move(parsed).value();
}

// --- the data set and overlay --------------------------------------------

struct World {
  std::unique_ptr<MidasOverlay> overlay;
  TupleVec tuples;  // every tuple stored in the overlay
};

/// `n` uniform tuples with ids first_id, first_id + 1, ...
TupleVec FreshTuples(size_t n, uint64_t first_id, Rng* rng) {
  TupleVec out = ripple::data::MakeUniform(n, kDims, rng);
  for (Tuple& t : out) t.id += first_id;
  return out;
}

/// Stores build their sorted-id column and k-d index lazily, behind const
/// methods. Building them here, on one thread, after every batch of
/// writes leaves the executor's workers, which share the overlay, with
/// reads only.
void WarmStores(const MidasOverlay& overlay,
                const std::vector<PeerId>& peers) {
  static const LinearScorer kAny(std::vector<double>(kDims, 1.0));
  for (PeerId p : peers) {
    const LocalStore& store = overlay.GetPeer(p).store;
    (void)store.ContainsId(0);
    (void)store.AllAtLeast(kAny, std::numeric_limits<double>::infinity());
  }
}

/// Writes `batch` through the overlay's write path, then warms the
/// stores it wrote to. Returns the write rate, in tuples per second.
double Ingest(const TupleVec& batch, World* w) {
  const Clock::time_point t0 = Clock::now();
  std::vector<PeerId> written;
  written.reserve(batch.size());
  for (const Tuple& t : batch) {
    w->overlay->InsertTuple(t);
    written.push_back(w->overlay->ResponsiblePeer(t.key));
  }
  std::sort(written.begin(), written.end());
  written.erase(std::unique(written.begin(), written.end()), written.end());
  WarmStores(*w->overlay, written);
  const double s = SecondsSince(t0);
  w->tuples.insert(w->tuples.end(), batch.begin(), batch.end());
  return static_cast<double>(batch.size()) / s;
}

/// Figure T's data and overlay: uniform 4-d tuples on MIDAS with
/// data-median splits, the same for every seed. The last `probe_tuples`
/// tuples are written into the built overlay in batches of
/// `ingest_batch`, whose write rates are appended to `*rates`.
World BuildWorld(const Scale& s, std::vector<double>* rates) {
  World w;
  Rng rng(SubSeed(kWorldSeed, kDataSalt));
  const size_t base = s.tuples - s.probe_tuples;
  w.tuples = ripple::data::MakeUniform(base, kDims, &rng);
  ripple::MidasOptions opt;
  opt.dims = kDims;
  opt.seed = SubSeed(kWorldSeed, kOverlaySalt);
  opt.split_rule = ripple::MidasSplitRule::kDataMedian;
  w.overlay = std::make_unique<MidasOverlay>(opt);
  for (const Tuple& t : w.tuples) w.overlay->InsertTuple(t);
  while (w.overlay->NumPeers() < s.peers) w.overlay->Join();
  WarmStores(*w.overlay, w.overlay->LivePeers());
  const TupleVec probe = FreshTuples(s.probe_tuples, base, &rng);
  for (size_t i = 0; i < probe.size(); i += s.ingest_batch) {
    const size_t end = std::min(probe.size(), i + s.ingest_batch);
    rates->push_back(Ingest(TupleVec(probe.begin() + i, probe.begin() + end),
                            &w));
  }
  return w;
}

struct Setup {
  World world;
  double setup_s = 0;
  double ingest_tuples_per_s = 0;
};

/// Builds the world `setup_reps` times; reports the median build time
/// and the median write rate over every probe batch.
Setup SetUp(const Scale& s) {
  std::vector<double> total, rates;
  Setup out;
  for (int rep = 0; rep < s.setup_reps; ++rep) {
    out.world = World{};  // release the previous build before the next
    const Clock::time_point t0 = Clock::now();
    out.world = BuildWorld(s, &rates);
    total.push_back(SecondsSince(t0));
  }
  out.setup_s = Median(total);
  out.ingest_tuples_per_s = Median(rates);
  return out;
}

// --- what one pass over a workload measured ------------------------------

struct Pass {
  uint64_t attempted = 0;
  uint64_t executed = 0;  // ran on an engine; cache hits and followers did not
  uint64_t shed = 0;
  uint64_t incomplete = 0;
  uint64_t wrong = 0;
  QueryStats stats;  // executed queries
  ripple::net::Coverage coverage;
  std::vector<double> run_ms;  // executed queries: worker start to answer
  std::vector<double> wait_ms;
  bool executor = false;  // queries ran on exec::Executor workers
  std::vector<double> busy_ms = std::vector<double>(kWorkers, 0.0);
  std::vector<uint64_t> fingerprints;  // every attempted item, in order
  double query_s = 0;  // measured time spent answering queries
  std::vector<double> round_s;  // measured query time, round by round
  size_t rounds = 0;

  std::vector<double> ingest_rates;  // tuples/s of each write batch

  uint64_t items_hit = 0;
  uint64_t items_followed = 0;
  uint64_t cache_lookups_hit = 0;
  uint64_t cache_lookups_missed = 0;
  double plan_s = 0;
  double absorb_s = 0;

  // Deltas of the registry counters the library exports.
  uint64_t tuples_scanned = 0;
  uint64_t dominance_cmps = 0;
  uint64_t heap_pushes = 0;
  double route_hops = 0;

  LayerSlot layers;  // traced passes only

  uint64_t failed() const { return shed + incomplete + wrong; }

  struct Mark {
    double query_s;
  };
  Mark StartRound() const { return {query_s}; }
  void EndRound(const Mark& m) {
    round_s.push_back(query_s - m.query_s);
    rounds += 1;
  }
};

struct RegistryMark {
  uint64_t tuples_scanned, dominance_cmps, heap_pushes;
  double route_hops;

  static RegistryMark Now() {
    ripple::obs::Registry& r = ripple::obs::Registry::Global();
    return {r.GetCounter("kernel.tuples_scanned").value(),
            r.GetCounter("kernel.dominance_cmps").value(),
            r.GetCounter("kernel.heap_pushes").value(),
            r.GetHistogram("midas.route.hops").sum()};
  }

  void AddDeltaTo(Pass* p) const {
    const RegistryMark now = Now();
    p->tuples_scanned += now.tuples_scanned - tuples_scanned;
    p->dominance_cmps += now.dominance_cmps - dominance_cmps;
    p->heap_pushes += now.heap_pushes - heap_pushes;
    p->route_hops += now.route_hops - route_hops;
  }
};

void Record(const ripple::exec::QueryOutcome& q, bool ran, Pass* p) {
  p->attempted += 1;
  p->fingerprints.push_back(q.shed ? 0 : Fingerprint(q.answer));
  if (q.shed) {
    p->shed += 1;
    return;
  }
  if (ran) {
    p->executed += 1;
    p->stats += q.stats;
    p->coverage += q.coverage;
    p->run_ms.push_back(q.run_ms);
    p->wait_ms.push_back(q.wait_ms);
    if (q.worker >= 0 && q.worker < kWorkers) p->busy_ms[q.worker] += q.run_ms;
  }
  if (!q.complete) p->incomplete += 1;
}

/// The oracle's answer per locality group: members of a group are one
/// instance, so the oracle is asked once per group while the data stands.
using GroupAnswers = std::map<int, std::vector<uint64_t>>;

/// Counts the complete answers of one batch that differ from the oracle.
uint64_t CountWrong(const MidasOverlay& overlay,
                    const std::vector<ripple::exec::WorkloadItem>& items,
                    uint64_t seed,
                    const std::vector<ripple::exec::QueryOutcome>& outcomes,
                    Oracle* oracle, GroupAnswers* groups) {
  uint64_t wrong = 0;
  std::vector<std::unique_ptr<Scorer>> scorers;
  GroupAnswers& by_group = *groups;
  ripple::exec::ForEachWorkloadInstance(
      overlay, items, seed, &scorers,
      [&](size_t i, const ripple::exec::WorkloadItem& item, PeerId,
          auto query) {
        const ripple::exec::QueryOutcome& out = outcomes[i];
        if (out.shed || !out.complete) return;
        using Q = std::decay_t<decltype(query)>;
        std::vector<uint64_t> want;
        if (auto it = by_group.find(item.group); it != by_group.end()) {
          want = it->second;
        } else if constexpr (std::is_same_v<Q, TopKQuery>) {
          want = oracle->TopK(query);
        } else if constexpr (std::is_same_v<Q, SkylineQuery>) {
          want = oracle->Skyline();
        } else if constexpr (std::is_same_v<Q, SkybandQuery>) {
          want = oracle->Skyband(query.band);
        } else {
          static_assert(std::is_same_v<Q, RangeQuery>);
          want = oracle->Range(query);
        }
        if (item.group >= 0) by_group.emplace(item.group, want);
        if (AnswerIds(out.answer) != want) ++wrong;
      });
  return wrong;
}

// --- traced jobs ---------------------------------------------------------

template <typename Q>
struct PolicyOf;
template <>
struct PolicyOf<TopKQuery> {
  using type = TopKPolicy;
};
template <>
struct PolicyOf<SkylineQuery> {
  using type = SkylinePolicy;
};
template <>
struct PolicyOf<SkybandQuery> {
  using type = SkybandPolicy;
};
template <>
struct PolicyOf<RangeQuery> {
  using type = RangePolicy;
};

/// The driver exec::CompileWorkload picks for each policy, with the time
/// it spends outside the engine booked as overlay bootstrap.
template <typename P, typename EngineT>
typename EngineT::Result Drive(const MidasOverlay& overlay,
                               const EngineT& engine,
                               const QueryRequest<P>& req) {
  Scope s(kBootstrap);
  if constexpr (std::is_same_v<P, TopKPolicy>) {
    return ripple::SeededTopK(overlay, engine, req);
  } else if constexpr (std::is_same_v<P, SkylinePolicy>) {
    return ripple::SeededSkyline(overlay, engine, req);
  } else {
    return engine.Run(req);
  }
}

/// A job running `req` like exec::CompileWorkload's would, on an engine
/// over Timed<P>, recording into the slot of the worker that runs it.
template <typename P>
ripple::exec::Job MakeTracedJob(const MidasOverlay& overlay,
                                QueryRequest<P> req, bool async,
                                std::vector<LayerSlot>* slots) {
  ripple::exec::Job job;
  job.run = [&overlay, req = std::move(req), async,
             slots](ripple::exec::JobContext& ctx) {
    BindSlot bind(&(*slots)[ctx.worker]);
    Scope s(kJob);
    if (async) {
      TimedLoopback wire;
      AsyncEngine<MidasOverlay, Timed<P>> engine(&overlay, Timed<P>{});
      engine.SetTransport(&wire);
      ripple::exec::internal::WireEngine(&engine, ctx);
      const TracedEngine<decltype(engine), P> traced(&engine, kSim);
      auto result = Drive(overlay, traced, req);
      tls_slot->frames_sent += wire.frames_shipped();
      tls_slot->bytes_sent += wire.bytes_shipped();
      return ripple::exec::internal::ToJobResult(std::move(result),
                                                 req.initiator, req.trace_id);
    }
    Engine<MidasOverlay, Timed<P>> engine(&overlay, Timed<P>{});
    ripple::exec::internal::WireEngine(&engine, ctx);
    const TracedEngine<decltype(engine), P> traced(&engine, kRipple);
    return ripple::exec::internal::ToJobResult(Drive(overlay, traced, req),
                                               req.initiator, req.trace_id);
  };
  return job;
}

struct TracedJobs {
  ripple::exec::CompiledWorkload compiled;
  std::vector<size_t> job_items;  // compiled.jobs[j] runs item job_items[j]
};

/// exec::CompileWorkload (or, given a plan, exec::CompileBatchedWorkload)
/// with traced jobs: the same instances, requests and drivers.
TracedJobs CompileTraced(const MidasOverlay& overlay,
                         const std::vector<ripple::exec::WorkloadItem>& items,
                         const ripple::exec::CompileOptions& opts,
                         std::vector<LayerSlot>* slots,
                         const ripple::exec::BatchPlan* plan = nullptr) {
  TracedJobs out;
  ripple::exec::ForEachWorkloadInstance(
      overlay, items, opts.seed, &out.compiled.scorers,
      [&](size_t i, const ripple::exec::WorkloadItem& item, PeerId initiator,
          auto query) {
        using P = typename PolicyOf<std::decay_t<decltype(query)>>::type;
        auto req = ripple::exec::internal::MakeRequest<MidasOverlay, P>(
            initiator, std::move(query), item, opts, i);
        if (plan != nullptr) {
          const ripple::exec::BatchSlot& slot = plan->slots[i];
          if (slot.role != ripple::exec::BatchSlot::Role::kLead) return;
          if constexpr (std::is_same_v<P, TopKPolicy>) {
            if (slot.has_seed) req.initial_state = slot.seed;
          }
        }
        out.compiled.jobs.push_back(
            MakeTracedJob<P>(overlay, std::move(req), opts.async, slots));
        out.job_items.push_back(i);
      });
  return out;
}

// --- the workloads -------------------------------------------------------

/// How much one pass runs: `rounds` rounds, unless its measured time
/// passes `max_query_s` first, so that a slow host still ends the run in
/// time. The first round is run regardless.
struct Budget {
  size_t rounds = 0;
  double max_query_s = std::numeric_limits<double>::infinity();

  bool More(const Pass& p) const {
    return p.rounds < rounds && (p.rounds == 0 || p.query_s < max_query_s);
  }
};

/// The `topk-lossy` query period: top-k (k=10, k=20) and range 2:1, each
/// kind under fast, r=2 and slow.
constexpr const char* kLossyPeriod =
    "topk k=10 r=fast\n"
    "topk k=20 r=2\n"
    "range radius=0.1 r=slow\n"
    "topk k=10 r=2\n"
    "topk k=20 r=slow\n"
    "range radius=0.1 r=fast\n"
    "topk k=10 r=slow\n"
    "topk k=20 r=fast\n"
    "range radius=0.1 r=2\n";

/// `topk-lossy`: the AsyncEngine under seeded loss and duplication, one
/// query at a time on the calling thread (no executor).
Pass LossyPass(World* w, const Scale& s, uint64_t seed,
               const Budget& budget, bool traced, Oracle* oracle) {
  std::string text;
  for (size_t i = 0; i < s.lossy_periods; ++i) text += kLossyPeriod;
  const auto items = Parse(text);
  Pass p;
  std::vector<LayerSlot> slots(1);
  const RegistryMark registry = RegistryMark::Now();
  while (budget.More(p)) {
    const Pass::Mark mark = p.StartRound();
    ripple::exec::CompileOptions copts;
    copts.seed = RoundSeed(seed, p.rounds);
    copts.async = true;
    copts.fault.loss_rate = 0.02;
    copts.fault.dup_rate = 0.01;
    // Enough retries that no query of a run gives up on a link.
    copts.retry.max_retries = 8;
    ripple::exec::CompiledWorkload compiled =
        traced ? CompileTraced(*w->overlay, items, copts, &slots).compiled
               : ripple::exec::CompileWorkload(*w->overlay, items, copts);
    std::vector<ripple::exec::QueryOutcome> outcomes(compiled.jobs.size());
    ripple::exec::JobContext ctx;
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < compiled.jobs.size(); ++i) {
      const Clock::time_point start = Clock::now();
      ripple::exec::JobResult r = compiled.jobs[i].run(ctx);
      ripple::exec::QueryOutcome& out = outcomes[i];
      out.run_ms = NsBetween(start, Clock::now()) / 1e6;
      out.index = i;
      out.worker = 0;
      out.answer = std::move(r.answer);
      out.stats = r.stats;
      out.coverage = std::move(r.coverage);
      out.complete = r.complete;
    }
    p.query_s += SecondsSince(t0);
    for (const auto& q : outcomes) Record(q, /*ran=*/true, &p);
    if (oracle != nullptr) {
      GroupAnswers groups;
      p.wrong +=
          CountWrong(*w->overlay, items, copts.seed, outcomes, oracle, &groups);
    }
    p.EndRound(mark);
  }
  registry.AddDeltaTo(&p);
  p.layers = slots[0];
  return p;
}

/// `ingest-cache`: each round writes a batch, invalidates the cache, then
/// answers the same locality workload twice through the batched
/// pipeline: groups of 4 identical instances, top-k and skyline 3:1.
Pass IngestCachePass(World* w, const Scale& s, uint64_t seed,
                     const Budget& budget, bool traced, Oracle* oracle) {
  std::string text;
  for (size_t g = 0; g < s.cache_groups; ++g) {
    text += g % 4 == 3 ? "skyline" : "topk k=10";
    text += " group=" + std::to_string(g) + " count=4\n";
  }
  const auto items = Parse(text);
  Pass p;
  p.executor = true;
  std::vector<LayerSlot> slots(kWorkers);
  ripple::cache::QueryCache cache;
  ripple::exec::BatchOptions bopts;
  bopts.cache = &cache;
  bopts.merge_duplicates = true;
  Rng ingest_rng(SubSeed(seed, kIngestSalt));
  const RegistryMark registry = RegistryMark::Now();
  while (budget.More(p)) {
    const Pass::Mark mark = p.StartRound();
    // Writes: a fresh batch through the overlay, then the owner's
    // contract after data changes.
    const TupleVec batch =
        FreshTuples(s.ingest_batch, w->tuples.size(), &ingest_rng);
    p.ingest_rates.push_back(Ingest(batch, w));
    cache.InvalidateAll();
    if (oracle != nullptr) oracle->Append(batch);

    // Reads: two passes over the same instances; the second hits.
    ripple::exec::CompileOptions copts;
    copts.seed = RoundSeed(seed, p.rounds);
    GroupAnswers groups;
    for (int pass = 0; pass < 2; ++pass) {
      ripple::exec::ExecutorOptions eopts;
      eopts.threads = kWorkers;
      eopts.seed = copts.seed;
      ripple::exec::Executor executor(eopts);
      const ripple::cache::CacheStats before = cache.stats();
      ripple::exec::BatchPlan plan;
      ripple::exec::WorkloadResult result;
      if (!traced) {
        const Clock::time_point t0 = Clock::now();
        result = ripple::exec::RunBatchedWorkload(executor, *w->overlay,
                                                  items, copts, bopts, &plan);
        p.query_s += SecondsSince(t0);
      } else {
        // RunBatchedWorkload step by step. The library's compile is timed
        // as planning; the traced jobs compiled next replace its jobs.
        const Clock::time_point t0 = Clock::now();
        plan = ripple::exec::PlanWorkload(*w->overlay, items, copts, bopts);
        ripple::exec::CompileBatchedWorkload(*w->overlay, plan, copts);
        const double plan_s = SecondsSince(t0);
        TracedJobs jobs =
            CompileTraced(*w->overlay, plan.items, copts, &slots, &plan);
        const Clock::time_point t1 = Clock::now();
        result = ripple::exec::ExpandBatchedResult(
            plan, jobs.job_items,
            executor.Run(jobs.compiled.jobs, w->overlay->NumPeers()));
        const double run_s = SecondsSince(t1);
        const Clock::time_point t2 = Clock::now();
        ripple::exec::AbsorbBatchedResults(*w->overlay, plan, copts, result,
                                           bopts);
        const double absorb_s = SecondsSince(t2);
        p.plan_s += plan_s;
        p.absorb_s += absorb_s;
        p.query_s += plan_s + run_s + absorb_s;
      }
      for (size_t i = 0; i < result.queries.size(); ++i) {
        const auto role = plan.slots[i].role;
        Record(result.queries[i],
               role == ripple::exec::BatchSlot::Role::kLead, &p);
        if (role == ripple::exec::BatchSlot::Role::kHit) p.items_hit += 1;
        if (role == ripple::exec::BatchSlot::Role::kFollow) {
          p.items_followed += 1;
        }
      }
      p.cache_lookups_hit += cache.stats().hits - before.hits;
      p.cache_lookups_missed += cache.stats().misses - before.misses;
      if (oracle != nullptr) {
        p.wrong += CountWrong(*w->overlay, plan.items, copts.seed,
                              result.queries, oracle, &groups);
      }
    }
    p.EndRound(mark);
  }
  registry.AddDeltaTo(&p);
  for (const LayerSlot& slot : slots) p.layers.Add(slot);
  return p;
}

// --- metrics -------------------------------------------------------------

double PerQuery(double total, const Pass& p) {
  return p.executed == 0 ? 0.0 : total / static_cast<double>(p.executed);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void AddEndToEnd(const Pass& p, const Setup& setup, Report* r) {
  auto add = [r](const char* name, double value, const char* unit) {
    r->metrics.push_back({name, value, unit});
  };
  const double answered = static_cast<double>(p.attempted - p.failed());
  double round_s = 0;
  for (double s : p.round_s) round_s += s;
  add("qps", answered / round_s, "1/s");
  add("query_ms_p50", Percentile(p.run_ms, 50), "ms");
  add("query_ms_p95", Percentile(p.run_ms, 95), "ms");
  add("setup_s", setup.setup_s, "s");
  add("answered_frac", Ratio(answered, static_cast<double>(p.attempted)),
      "fraction");
  add("hops_mean", PerQuery(p.stats.latency_hops, p), "hops");
  add("visited_mean", PerQuery(p.stats.peers_visited, p), "peers");
  add("messages_per_query", PerQuery(p.stats.messages, p), "messages");
  add("bytes_per_query", PerQuery(p.stats.bytes_on_wire, p), "B");
  add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(const Pass& plain, const Pass& traced,
                 double ingest_us_per_tuple, Report* r) {
  auto add = [r](const char* name, double value, const char* unit) {
    r->metrics.push_back({name, value, unit});
  };
  const Pass& t = traced;
  const LayerSlot& l = t.layers;
  auto ms = [&](Layer layer) { return PerQuery(l.self_ns[layer] / 1e6, t); };

  add("store.tuples_scanned", PerQuery(t.tuples_scanned, t), "count");
  add("store.dominance_cmps", PerQuery(t.dominance_cmps, t), "count");
  add("store.heap_pushes", PerQuery(t.heap_pushes, t), "count");
  add("store.ingest_us_per_tuple", ingest_us_per_tuple, "us");

  add("queries.local_ms", ms(kLocal), "ms");
  add("queries.merge_ms", ms(kMerge), "ms");
  add("queries.prune_ms", ms(kPrune), "ms");
  add("queries.prune_rate",
      Ratio(static_cast<double>(l.links_pruned),
            static_cast<double>(l.links_tested)),
      "fraction");

  add("wire.encode_ms", ms(kEncode), "ms");
  add("wire.decode_ms", ms(kDecode), "ms");
  add("wire.bytes_encoded", PerQuery(l.bytes_encoded, t), "B");

  add("ripple.run_ms", PerQuery(l.run_ns / 1e6, t), "ms");
  add("ripple.self_ms", ms(kRipple), "ms");

  add("sim.self_ms", ms(kSim), "ms");
  add("sim.retries", PerQuery(t.coverage.retries, t), "count");
  add("sim.timeouts", PerQuery(t.coverage.timeouts, t), "count");
  add("sim.dup_suppressed", PerQuery(t.coverage.duplicates_suppressed, t),
      "count");
  add("sim.acks", PerQuery(t.coverage.acks, t), "count");

  add("overlay.bootstrap_ms", ms(kBootstrap), "ms");
  add("overlay.route_hops", PerQuery(t.route_hops, t), "hops");

  // Zero where no executor runs the queries.
  const double busy_max =
      *std::max_element(t.busy_ms.begin(), t.busy_ms.end());
  double busy_sum = 0;
  for (double b : t.busy_ms) busy_sum += b;
  add("exec.queue_wait_ms_p50", t.executor ? Percentile(t.wait_ms, 50) : 0.0,
      "ms");
  add("exec.worker_imbalance",
      t.executor ? Ratio(busy_max, busy_sum / t.busy_ms.size()) : 0.0,
      "ratio");

  const double items = static_cast<double>(t.attempted);
  add("cache.hit_rate",
      Ratio(static_cast<double>(t.cache_lookups_hit),
            static_cast<double>(t.cache_lookups_hit + t.cache_lookups_missed)),
      "fraction");
  add("cache.merged_frac", Ratio(static_cast<double>(t.items_followed), items),
      "fraction");
  add("cache.plan_ms", Ratio(t.plan_s * 1e3, items), "ms");
  add("cache.absorb_ms", Ratio(t.absorb_s * 1e3, items), "ms");

  add("net.send_ms", ms(kSend), "ms");
  add("net.frames_sent", PerQuery(l.frames_sent, t), "count");
  add("net.bytes_sent", PerQuery(l.bytes_sent, t), "B");
  add("net.dropped", PerQuery(t.coverage.messages_lost, t), "count");

  // Every millisecond of a traced query belongs to a named layer except
  // the job body's own (engine construction, result hand-off).
  double attributed_ns = 0;
  for (int i = 0; i < kNumLayers; ++i) {
    if (i != kJob) attributed_ns += l.self_ns[i];
  }
  double run_ms = 0;
  for (double v : t.run_ms) run_ms += v;
  add("trace.attributed_frac", Ratio(attributed_ns / 1e6, run_ms), "fraction");
  add("trace.overhead_frac", Ratio(t.query_s, plain.query_s) - 1.0,
      "fraction");
}

/// A replay, traced or not, must compute exactly what the first untraced
/// pass did.
void CheckSame(const Pass& a, const Pass& b, Report* r) {
  auto expect = [r](bool same, const char* what) {
    if (!same) {
      r->correct = false;
      r->errors.push_back(std::string("replayed pass differs: ") + what);
    }
  };
  expect(a.fingerprints == b.fingerprints, "answers");
  expect(a.stats.messages == b.stats.messages, "messages");
  expect(a.stats.bytes_on_wire == b.stats.bytes_on_wire, "bytes on wire");
  expect(a.stats.peers_visited == b.stats.peers_visited, "peers visited");
  expect(a.stats.latency_hops == b.stats.latency_hops, "hops");
  expect(a.tuples_scanned == b.tuples_scanned, "store.tuples_scanned");
  expect(a.dominance_cmps == b.dominance_cmps, "store.dominance_cmps");
  expect(a.heap_pushes == b.heap_pushes, "store.heap_pushes");
  expect(a.coverage.retries == b.coverage.retries, "retries");
}

/// Keeps, from `again`, a repeat of `p`'s rounds, each round's and each
/// query's faster time. Neighbours on a shared host slow a process for a
/// second or so at a time and never speed it up, so the faster of
/// repeats some seconds apart reads the program rather than the host.
void KeepFaster(const Pass& again, Pass* p) {
  RIPPLE_CHECK(again.round_s.size() == p->round_s.size());
  RIPPLE_CHECK(again.run_ms.size() == p->run_ms.size());
  for (size_t i = 0; i < p->round_s.size(); ++i) {
    p->round_s[i] = std::min(p->round_s[i], again.round_s[i]);
  }
  for (size_t i = 0; i < p->run_ms.size(); ++i) {
    p->run_ms[i] = std::min(p->run_ms[i], again.run_ms[i]);
  }
}

using PassFn = Pass (*)(World*, const Scale&, uint64_t, const Budget&, bool,
                        Oracle*);

/// A run does a fixed amount of work, not a fixed amount of time: rounds
/// per second of a pass's share of --seconds, calibrated on a 4-core x86
/// container so that a run measures about that long. The work, and with it every exact
/// counter and every tuple written, then repeats under a seed however
/// fast the code is, up to the Budget's time cap.
struct WorkloadDef {
  const char* name;
  PassFn pass;
  double rounds_per_s;
  int repeats;        // untraced passes over the same rounds; see KeepFaster
  bool writes;        // the pass mutates the world
};

const WorkloadDef kWorkloads[] = {
    {"topk-lossy", LossyPass, 28.0, 3, false},
    {"ingest-cache", IngestCachePass, 15.0, 3, true},
};

const WorkloadDef* Find(const std::string& name) {
  for (const WorkloadDef& d : kWorkloads) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

/// Runs `def`'s pass again over `rounds` rounds, on a rebuilt world when
/// the pass writes to it.
Pass Replay(const WorkloadDef& def, const Scale& scale, uint64_t seed,
            size_t rounds, bool traced, Setup* setup) {
  if (def.writes) {
    std::vector<double> probe_rates;
    setup->world = World{};
    setup->world = BuildWorld(scale, &probe_rates);
  }
  Budget replay;
  replay.rounds = rounds;
  return def.pass(&setup->world, scale, seed, replay, traced, nullptr);
}

}  // namespace

bool IsWorkload(const std::string& name) { return Find(name) != nullptr; }

Report RunWorkload(const RunOptions& opts) {
  const WorkloadDef* def = Find(opts.workload);
  RIPPLE_CHECK(def != nullptr);
  const Scale& scale = opts.tiny ? kTiny : kFull;
  // The library's own instruments (kernel.*, midas.route.*, exec.*).
  ripple::obs::Registry::EnableGlobal(true);

  Setup setup = SetUp(scale);
  Oracle oracle(setup.world.tuples);

  // An untraced run spends its time evenly on its repeats; a traced run
  // on its untraced and its traced pass.
  const int passes = opts.trace ? 2 : def->repeats;
  const double seconds = opts.seconds / passes;
  Budget budget;
  budget.rounds = std::max<size_t>(std::llround(seconds * def->rounds_per_s),
                                   1);
  budget.max_query_s = 1.25 * seconds;

  Report report;
  Pass plain =
      def->pass(&setup.world, scale, opts.seed, budget, false, &oracle);
  report.attempted = plain.attempted;
  report.failed = plain.failed();
  if (plain.wrong > 0) {
    report.correct = false;
    report.errors.push_back(std::to_string(plain.wrong) +
                            " answers differ from the oracle");
  }
  if (!opts.trace) {
    for (int k = 1; k < def->repeats; ++k) {
      const Pass again =
          Replay(*def, scale, opts.seed, plain.rounds, false, &setup);
      CheckSame(plain, again, &report);
      KeepFaster(again, &plain);
    }
    AddEndToEnd(plain, setup, &report);
    return report;
  }

  // The traced pass replays the untraced pass's rounds.
  const Pass traced = Replay(*def, scale, opts.seed, plain.rounds, true, &setup);
  CheckSame(plain, traced, &report);
  // Workloads without writes of their own report the set-up probe's.
  const double ingest_per_s = traced.ingest_rates.empty()
                                  ? setup.ingest_tuples_per_s
                                  : Median(traced.ingest_rates);
  AddPerLayer(plain, traced, 1e6 / ingest_per_s, &report);
  return report;
}

}  // namespace ripplebench
