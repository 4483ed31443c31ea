#ifndef RIPPLE_EXEC_COMPILE_H_
#define RIPPLE_EXEC_COMPILE_H_

#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/executor.h"
#include "exec/workload.h"
#include "geom/scoring.h"
#include "net/fault.h"
#include "queries/range.h"
#include "queries/skyband.h"
#include "queries/skyline.h"
#include "queries/skyline_driver.h"
#include "queries/topk.h"
#include "queries/topk_driver.h"
#include "ripple/api.h"
#include "ripple/engine.h"
#include "sim/async_engine.h"

namespace ripple::exec {

/// How CompileWorkload turns WorkloadItems into executable Jobs.
struct CompileOptions {
  /// Master seed. Each item's instance randomness (initiator, scorer
  /// weights, range center) flows from a per-item stream derived from
  /// (seed, item index) — NOT from the worker RNG — so compiled answers
  /// are identical for every thread count, not just every run.
  uint64_t seed = 1;
  /// Run through the discrete-event AsyncEngine instead of the recursive
  /// Engine. Required for fault injection and in-engine deadlines.
  bool async = false;
  /// Fault model for async jobs; FaultOptions::seed is overridden per item
  /// (derived from `seed` and the index) so fault schedules are
  /// reproducible yet independent across queries.
  net::FaultOptions fault;
  /// Retry discipline for async jobs under faults.
  net::RetryOptions retry;
  /// Head-based trace sampling probability in [0, 1]. The decision is
  /// drawn per item from the item's own stream (thread-count invariant)
  /// and stamped into QueryRequest::trace_id — 0 keeps every query
  /// unsampled.
  double trace_sample = 0.0;
};

/// A compiled workload: the jobs plus the scorer storage they borrow from.
/// Movable; must outlive the Executor::Run call consuming `jobs`.
struct CompiledWorkload {
  std::vector<Job> jobs;
  /// Owns the Scorer objects top-k jobs reference (TopKQuery holds a raw
  /// pointer by design — scorers must outlive the query).
  std::vector<std::unique_ptr<Scorer>> scorers;
};

namespace internal {

/// Independent per-item stream: splitmix-style spread of (seed, index) so
/// neighboring items and neighboring seeds do not correlate.
inline uint64_t ItemSeed(uint64_t seed, size_t index) {
  return seed * 0x9e3779b97f4a7c15ULL +
         (static_cast<uint64_t>(index) + 1) * 0x517cc1b727220a95ULL;
}

/// Locality groups (WorkloadItem::group >= 0) replace the per-item stream
/// with a per-GROUP stream so every member draws the identical instance.
/// XOR'd into a distinct constant so group g never collides with item g.
inline uint64_t GroupSeed(uint64_t seed, int group) {
  return ItemSeed(seed, static_cast<size_t>(group)) ^ 0x6a09e667f3bcc909ULL;
}

inline uint64_t InstanceSeed(uint64_t seed, const WorkloadItem& item,
                             size_t index) {
  return item.group >= 0 ? GroupSeed(seed, item.group) : ItemSeed(seed, index);
}

inline JobResult ToJobResult(QueryResult<TupleVec> result, PeerId initiator,
                             uint64_t trace_id) {
  JobResult jr;
  jr.answer = std::move(result.answer);
  jr.stats = result.stats;
  jr.coverage = std::move(result.coverage);
  jr.complete = result.complete;
  jr.completion_time = result.completion_time;
  jr.initiator = initiator;
  jr.trace_id = trace_id;
  return jr;
}

/// Wires the worker-private observability from the JobContext into the
/// engine built for one job invocation. Engines are cheap (two pointers
/// and a stateless policy), so constructing one per run beats sharing
/// mutable engine state across workers. The worker tracer intentionally
/// only receives the executor's admission envelopes, not per-visit engine
/// spans: a workload of thousands of queries would otherwise record
/// millions of spans.
template <typename EngineT>
void WireEngine(EngineT* engine, JobContext& ctx) {
  engine->SetSink(
      obs::Sink(/*tracer=*/nullptr, ctx.sink.profiler(), ctx.sink.journal()));
}

template <typename Overlay, typename Policy>
QueryRequest<Policy> MakeRequest(PeerId initiator,
                                 typename Policy::Query query,
                                 const WorkloadItem& item,
                                 const CompileOptions& opts, size_t index) {
  QueryRequest<Policy> req;
  req.initiator = initiator;
  req.query = std::move(query);
  req.ripple = item.ripple;
  if (opts.async) {
    req.deadline = item.deadline;  // sim units once the engine owns it
    req.retry = opts.retry;
    req.fault = opts.fault;
    req.fault.seed = ItemSeed(opts.seed, index) ^ 0x5bf03635ULL;
  }
  if (opts.trace_sample > 0.0) {
    // Head sampling: one decision per query, taken here (the initiator),
    // honored by every peer because the id rides the v2 frame header.
    Rng trng(ItemSeed(opts.seed, index) ^ 0x7ace1dULL);
    if (trng.UniformDouble() < opts.trace_sample) {
      req.trace_id = ItemSeed(opts.seed, index) | 1ULL;  // nonzero
    }
  }
  return req;
}

/// The one job factory under CompileWorkload and CompileBatchedWorkload:
/// picks the policy and the seeded driver for `query`'s type. A top-k
/// job given `seed` (a cached threshold bound) starts its walk from that
/// state instead of the default one. Sync/async dispatch happens per
/// call so the same compiled workload structure serves both engines.
template <typename Overlay, typename Q>
Job MakeQueryJob(const Overlay& overlay, Q query, const WorkloadItem& item,
                 const CompileOptions& opts, size_t index, PeerId initiator,
                 std::optional<TopKState> seed = std::nullopt) {
  using Policy = std::conditional_t<
      std::is_same_v<Q, TopKQuery>, TopKPolicy,
      std::conditional_t<
          std::is_same_v<Q, SkylineQuery>, SkylinePolicy,
          std::conditional_t<std::is_same_v<Q, SkybandQuery>, SkybandPolicy,
                             RangePolicy>>>;
  static_assert(std::is_same_v<Q, typename Policy::Query>);
  Job job;
  job.label = item.label.empty() ? WorkloadKindName(item.kind) : item.label;
  job.deadline_ms = item.deadline;  // wall-ms while queued (executor side)
  job.run = [&overlay, query = std::move(query), item, opts, index, initiator,
             seed](JobContext& ctx) -> JobResult {
    QueryRequest<Policy> req =
        MakeRequest<Overlay, Policy>(initiator, query, item, opts, index);
    if constexpr (std::is_same_v<Q, TopKQuery>) req.initial_state = seed;
    const auto run = [&](auto& engine) {
      WireEngine(&engine, ctx);
      if constexpr (std::is_same_v<Q, TopKQuery>) {
        return SeededTopK(overlay, engine, req);
      } else if constexpr (std::is_same_v<Q, SkylineQuery>) {
        return SeededSkyline(overlay, engine, req);
      } else {
        return engine.Run(req);
      }
    };
    if (opts.async) {
      AsyncEngine<Overlay, Policy> engine(&overlay, Policy{});
      return ToJobResult(run(engine), initiator, req.trace_id);
    }
    Engine<Overlay, Policy> engine(&overlay, Policy{});
    return ToJobResult(run(engine), initiator, req.trace_id);
  };
  return job;
}

}  // namespace internal

/// The per-item instance generation underneath CompileWorkload, exposed
/// so other drivers of the workload-file format (net-bench's live client)
/// draw byte-identical query instances. For each item, the per-item RNG
/// stream (InstanceSeed: ItemSeed(seed, index), or the group's shared
/// stream for locality-grouped items) draws — in this exact, frozen order —
/// the initiator, then the kind-specific parameters (top-k scorer
/// weights; range center), and `visit(index, item, initiator, query)` is
/// invoked with the typed query (TopKQuery / SkylineQuery / SkybandQuery
/// / RangeQuery — visitors dispatch with `if constexpr`). Top-k scorers
/// are appended to `*scorers`, which must outlive every use of the
/// visited queries.
template <typename Overlay, typename Visitor>
void ForEachWorkloadInstance(const Overlay& overlay,
                             const std::vector<WorkloadItem>& items,
                             uint64_t seed,
                             std::vector<std::unique_ptr<Scorer>>* scorers,
                             Visitor&& visit) {
  const int dims = overlay.domain().dims();
  for (size_t i = 0; i < items.size(); ++i) {
    const WorkloadItem& item = items[i];
    Rng rng(internal::InstanceSeed(seed, item, i));
    const PeerId initiator = overlay.RandomPeer(&rng);
    switch (item.kind) {
      case WorkloadItem::Kind::kTopK: {
        std::vector<double> weights(dims);
        for (double& w : weights) w = 0.1 + rng.UniformDouble();
        scorers->push_back(std::make_unique<LinearScorer>(weights));
        TopKQuery query;
        query.scorer = scorers->back().get();
        query.k = item.k;
        query.epsilon = item.epsilon;
        visit(i, item, initiator, std::move(query));
        break;
      }
      case WorkloadItem::Kind::kSkyline: {
        visit(i, item, initiator, SkylineQuery{});
        break;
      }
      case WorkloadItem::Kind::kSkyband: {
        SkybandQuery query;
        query.band = item.band;
        visit(i, item, initiator, std::move(query));
        break;
      }
      case WorkloadItem::Kind::kRange: {
        RangeQuery query;
        query.center = Point(dims);
        const Rect domain = overlay.domain();
        for (int d = 0; d < dims; ++d) {
          query.center[d] = rng.UniformDouble(domain.lo()[d], domain.hi()[d]);
        }
        query.radius = item.radius;
        visit(i, item, initiator, std::move(query));
        break;
      }
    }
  }
}

/// Compiles a parsed workload against an overlay into executor Jobs.
///
/// Determinism: every instance decision is drawn from a fresh per-item
/// RNG stream seeded by (opts.seed, item index). Two runs — on any thread
/// count — therefore execute byte-identical QueryRequests, and since the
/// engines are deterministic, produce byte-identical answers/stats
/// (ExecTest.AnswersInvariantAcrossThreadCounts). The overlay must
/// outlive the returned jobs; it is shared read-only across workers.
template <typename Overlay>
CompiledWorkload CompileWorkload(const Overlay& overlay,
                                 const std::vector<WorkloadItem>& items,
                                 const CompileOptions& opts = {}) {
  CompiledWorkload out;
  out.jobs.reserve(items.size());
  ForEachWorkloadInstance(
      overlay, items, opts.seed, &out.scorers,
      [&](size_t i, const WorkloadItem& item, PeerId initiator, auto query) {
        out.jobs.push_back(internal::MakeQueryJob(
            overlay, std::move(query), item, opts, i, initiator));
      });
  return out;
}

}  // namespace ripple::exec

#endif  // RIPPLE_EXEC_COMPILE_H_
