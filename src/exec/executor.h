#ifndef RIPPLE_EXEC_EXECUTOR_H_
#define RIPPLE_EXEC_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/coverage.h"
#include "net/metrics.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sink.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "overlay/types.h"
#include "store/tuple.h"

namespace ripple::exec {

/// Tuning knobs of the concurrent workload executor. The determinism
/// contract (docs/EXECUTOR.md) is parameterized by the seed alone: every
/// job's RNG stream derives from (seed, job index), so the deterministic
/// fields of the WorkloadResult are byte-identical across runs and
/// thread counts, while job-to-worker assignment is a measurement.
struct ExecutorOptions {
  /// Pool size. Values < 1 are treated as 1.
  int threads = 1;
  /// Admission buffering per worker: the one shared queue holds
  /// `queue_capacity × threads` jobs. When it is full, Run()'s admission
  /// loop blocks — backpressure, not buffering.
  size_t queue_capacity = 64;
  /// Master seed: derives each job's private RNG stream.
  uint64_t seed = 1;
  /// Target admission rate in queries/second; 0 = admit as fast as
  /// backpressure allows. Pacing bounds offered load, backpressure bounds
  /// accepted load; with both, the executor degrades by queueing first and
  /// shedding expired-deadline queries second.
  double qps_target = 0.0;
  /// Record one admission-to-completion span per query into the owning
  /// worker's tracer (see Executor::worker_tracers). Off by default: spans
  /// cost memory per query and the histograms carry the same latencies.
  bool collect_spans = false;
  /// Windowed metrics: when `snapshots` is set and `snapshot_every_ms`
  /// > 0, the admission thread captures the series at that wall-clock
  /// period (plus one initial and one final capture). Caller owns the
  /// series.
  obs::SnapshotSeries* snapshots = nullptr;
  double snapshot_every_ms = 0.0;
  /// Slow-query log: executed queries whose admission-to-completion
  /// latency crosses the log's threshold are recorded (force-sampled
  /// even when head sampling skipped them). Caller owns the log.
  obs::SlowQueryLog* slow_log = nullptr;
  /// Per-peer event journal shared by every worker (obs::JournalSet is
  /// thread-safe). Jobs wire it into their engines through
  /// JobContext::sink; worker tracers mirror admission spans into it
  /// for head-sampled queries. Caller owns the set.
  obs::JournalSet* journal = nullptr;
};

/// Everything a job may touch while it runs. All pointers are private to
/// the job or its worker (no synchronization needed) except the sink's
/// journal, which is thread-safe.
struct JobContext {
  /// The worker running the job; whichever idle worker popped it first.
  int worker = 0;
  /// The job's own RNG stream, seeded from (ExecutorOptions::seed, job
  /// index): the same draws on any worker and for any thread count.
  Rng* rng = nullptr;
  /// The worker's observability: its private profiler (merged into
  /// WorkloadResult::profile after the pool joins), its tracer (null
  /// unless ExecutorOptions::collect_spans) and the shared journal from
  /// ExecutorOptions::journal (or null).
  obs::Sink sink;
};

/// What one executed query reports back to the executor.
struct JobResult {
  TupleVec answer;
  QueryStats stats;
  net::Coverage coverage;
  bool complete = true;
  /// Simulated completion time (async-engine jobs; 0 for recursive runs).
  double completion_time = 0.0;
  /// The peer the query entered the network at (span/debug labeling).
  PeerId initiator = kInvalidPeer;
  /// The query's trace id (0 = not head-sampled); feeds the slow-query
  /// log so slow entries can link to their distributed trace.
  uint64_t trace_id = 0;
};

/// One unit of admitted work: a closure over a compiled QueryRequest (see
/// exec/compile.h) plus executor-level metadata.
struct Job {
  std::function<JobResult(JobContext&)> run;
  /// Wall-clock milliseconds from admission after which a still-queued
  /// query is shed instead of run (QueryRequest::deadline's executor-side
  /// interpretation; see docs/EXECUTOR.md). Infinity = never shed.
  double deadline_ms = std::numeric_limits<double>::infinity();
  /// Human-readable label ("topk k=10 r=fast"), for summaries and spans.
  std::string label;
};

/// Per-query outcome, indexed by submission order.
///
/// Deterministic fields (byte-identical for a fixed seed, across runs and
/// thread counts, for jobs that draw randomness only from their item seed
/// or JobContext::rng): `answer`, `stats`, `coverage`, `complete`,
/// `completion_time`, `initiator`, `shed` when no deadline is set.
/// Measured fields are never deterministic: `worker` (which idle worker
/// took the job) and the wall-clock `*_ms`; deadlines make `shed`
/// timing-dependent too.
struct QueryOutcome {
  size_t index = 0;
  /// True iff the deadline expired while the query was still queued; the
  /// query never ran, `answer` is empty and `complete` is false.
  bool shed = false;
  PeerId initiator = kInvalidPeer;
  uint64_t trace_id = 0;
  TupleVec answer;
  QueryStats stats;
  net::Coverage coverage;
  bool complete = true;
  double completion_time = 0.0;
  int worker = -1;        // the worker that ran it; -1 = never ran
  double wait_ms = 0.0;   // admission -> worker pop
  double run_ms = 0.0;    // worker pop -> job return
  double total_ms = 0.0;  // admission -> completion (the latency histogram)
};

/// Aggregate result of one Executor::Run. The deterministic/wall split of
/// QueryOutcome carries over: `total_stats`, `coverage`,
/// `completed`/`partial` counts and the count fields of `profile` are
/// deterministic (fixed seed, no deadlines); `wall_s`, `qps` and the
/// latency histograms are measurements.
struct WorkloadResult {
  std::vector<QueryOutcome> queries;
  /// Sum of every executed query's QueryStats.
  QueryStats total_stats;
  /// Sum of every executed query's fault-layer coverage report.
  net::Coverage coverage;
  size_t completed = 0;  // queries that ran (== queries.size() - shed)
  size_t shed = 0;       // queries dropped by their queue deadline
  size_t partial = 0;    // ran but complete == false (fault degradation)
  double wall_s = 0.0;
  /// Executed queries per wall-clock second.
  double qps = 0.0;
  obs::Histogram latency_ms;  // admission -> completion, executed queries
  obs::Histogram wait_ms;     // time spent queued
  obs::Histogram run_ms;      // time spent executing
  /// Per-worker profilers merged after the join: per-peer spans (the
  /// workload's visit counts), messages, tuples and CPU. The count
  /// columns are sums, so they do not depend on which worker ran what.
  obs::Profiler profile;

  /// One-paragraph human summary (counts, qps, latency percentiles, peak
  /// peer load).
  std::string Summary() const;
};

/// The concurrent workload executor: a fixed pool of worker threads pulling
/// from one bounded admission queue (work-conserving: an idle worker takes
/// the next job, so no worker waits while another has a backlog), per-job
/// seeded RNGs, per-worker profilers/tracers, deadline shedding, and obs
/// wiring (exec.* counters + queue-depth gauge when the global registry is
/// enabled).
///
/// Threading model and tuning guide: docs/EXECUTOR.md. The overlay being
/// queried is shared read-only across workers — engines never mutate it —
/// while all per-query mutable state lives in the job or its worker. The
/// process-global obs hooks stay live through the parallel section:
/// Counter/Gauge/Histogram mutation is atomic or internally locked, the
/// registry's create-on-first-use map and the global profiler feed are
/// mutex-guarded, so worker-side engine runs (coverage/traffic metrics,
/// bootstrap routing) land in the global registry instead of being
/// silently dropped.
class Executor {
 public:
  explicit Executor(ExecutorOptions options) : options_(options) {
    if (options_.threads < 1) options_.threads = 1;
  }

  const ExecutorOptions& options() const { return options_; }

  /// Runs every job to completion (or its deadline) and aggregates.
  /// `peer_universe` sizes the merged profiler — pass overlay.NumPeers().
  /// Blocks until the workload drains; the calling thread is the
  /// admission thread.
  WorkloadResult Run(const std::vector<Job>& jobs, size_t peer_universe);

  /// Per-worker tracers of the last Run (admission spans when
  /// collect_spans, plus any engine spans jobs recorded through
  /// JobContext::sink). Which tracer holds a span depends on which
  /// worker ran the job, a measurement. Valid until the next Run.
  const std::vector<obs::Tracer>& worker_tracers() const { return tracers_; }

 private:
  ExecutorOptions options_;
  std::vector<obs::Tracer> tracers_;
};

}  // namespace ripple::exec

#endif  // RIPPLE_EXEC_EXECUTOR_H_
