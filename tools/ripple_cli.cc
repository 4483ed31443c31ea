// ripple_cli — distributed rank queries from the command line, as
// subcommands (tools/cli_commands.h):
//
//   run            one query or a workload on the simulated overlay
//   serve          one live-overlay daemon process (UDP; ripple_cli_net.cc)
//   net-bench      wall-clock driver against a live overlay
//   trace-assemble merge per-peer journals into one span tree
//
//   $ ripple_cli run --query=topk --dataset=nba --peers=4096 --dims=6 --k=5
//   $ ripple_cli run --query=skyline --dataset=synth --dims=4
//   $ ripple_cli run --query=diversify --dataset=mirflickr --lambda=0.3
//   $ ripple_cli run --query=topk --engine=async --loss=0.05 --crash-rate=0.01
//   $ ripple_cli run --workload=default:64 --threads=4 --qps-target=200
//
// Prints the answer tuples plus the cost metrics the paper reports
// (latency in hops, peers visited, messages, tuples shipped). With
// --engine=async the query runs through the discrete-event simulator;
// fault flags then inject message loss / duplication / delay jitter /
// peer crashes, and the coverage report says how the answer degraded.
//
// With --workload the CLI switches from one query to a multi-query
// throughput run through the concurrent executor (src/exec/, see
// docs/EXECUTOR.md): the workload file (or the built-in default mix) is
// compiled against the overlay and driven through a --threads-sized
// worker pool, optionally paced at --qps-target. The export flags keep
// working: --metrics-out additionally carries the exec.* counters,
// --profile-out the per-peer load of the whole workload, --trace-out one
// admission-to-completion span per executed query.
//
// Distributed tracing (docs/OBSERVABILITY.md): --journal-out=DIR flushes
// per-peer event journals (frame sends/receives, span begin/end,
// retransmissions, drops, crashes) as peer-<id>.jsonl files; the
// trace-assemble subcommand merges such a directory back into one global
// span tree offline:
//
//   $ ripple_cli run --query=topk --engine=async --journal-out=/tmp/j
//   $ ripple_cli trace-assemble --journal=/tmp/j
//
// --snapshot-out captures windowed metrics snapshots plus a slow-query
// log (--slow-query-ms) during workload runs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

#include "cache/adaptive.h"
#include "cache/query_cache.h"
#include "cli_commands.h"
#include "common/flags.h"
#include "common/log.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "exec/batch.h"
#include "exec/compile.h"
#include "exec/executor.h"
#include "exec/workload.h"
#include "obs/assemble.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "overlay/midas/midas.h"
#include "queries/diversify_driver.h"
#include "queries/range.h"
#include "queries/skyband.h"
#include "queries/skyline_driver.h"
#include "queries/topk_driver.h"
#include "sim/async_engine.h"

namespace ripple {
namespace {

/// Splices `from`'s span forest onto the end of `into`, remapping ids.
void MergeSpans(const obs::Tracer& from, obs::Tracer* into) {
  const uint32_t offset = static_cast<uint32_t>(into->span_count());
  for (const obs::Span& s : from.spans()) {
    const uint32_t parent =
        s.parent == obs::kNoSpan ? obs::kNoSpan : s.parent + offset;
    const uint32_t id = into->StartSpan(s.peer, parent, s.kind, s.r, s.start);
    obs::Span copy = s;
    copy.id = id;
    copy.parent = parent;
    into->span(id) = copy;
  }
}

/// Runs `drive` against a freshly built engine of the requested kind; both
/// engines share the QueryRequest/QueryResult API, so the driver callback
/// is written once.
template <typename Policy, typename Driver>
QueryResult<typename Policy::Answer> RunWithEngine(const MidasOverlay& overlay,
                                                   bool async_mode,
                                                   obs::Tracer* tracer,
                                                   obs::Profiler* profiler,
                                                   obs::JournalSet* journal,
                                                   Driver&& drive) {
  if (async_mode) {
    AsyncEngine<MidasOverlay, Policy> engine(&overlay, Policy{});
    engine.SetTracer(tracer);
    engine.SetProfiler(profiler);
    engine.SetJournal(journal);
    return drive(engine);
  }
  Engine<MidasOverlay, Policy> engine(&overlay, Policy{});
  engine.SetTracer(tracer);
  engine.SetProfiler(profiler);
  engine.SetJournal(journal);
  return drive(engine);
}

}  // namespace

/// The `trace-assemble` subcommand: merge per-peer journals written by
/// --journal-out back into one global span forest, offline.
int RunTraceAssemble(int argc, char** argv) {
  std::string journal_path;
  std::string out;
  std::string format = "ascii";
  FlagParser flags(
      "ripple_cli trace-assemble: merge per-peer event journals "
      "(peer-<id>.jsonl, written by --journal-out) into one global span "
      "tree, reconstructing causality from the trace ids the frames "
      "carried and aligning peer clocks Lamport-style from send/recv "
      "pairs");
  flags.AddString("journal",
                  "journal directory (reads every *.jsonl) or one journal "
                  "file",
                  &journal_path);
  flags.AddString("out", "output path (ascii format prints to stdout when "
                  "empty)",
                  &out);
  flags.AddString("format", "ascii | chrome | jsonl", &format);
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return parsed.code() == StatusCode::kFailedPrecondition ? 0 : 2;
  }
  if (journal_path.empty()) {
    std::fprintf(stderr, "trace-assemble needs --journal=<dir-or-file>\n");
    return 2;
  }
  const Result<std::vector<obs::PeerJournal>> journals =
      obs::ReadJournals(journal_path);
  if (!journals.ok()) {
    std::fprintf(stderr, "reading journals: %s\n",
                 journals.status().message().c_str());
    return 1;
  }
  const Result<obs::AssembleReport> report = obs::AssembleJournals(*journals);
  if (!report.ok()) {
    std::fprintf(stderr, "assembling: %s\n",
                 report.status().message().c_str());
    return 1;
  }
  std::printf(
      "assembled %zu journal(s): %llu trace(s), %llu span(s)%s\n",
      journals->size(), static_cast<unsigned long long>(report->traces),
      static_cast<unsigned long long>(report->spans),
      report->complete ? "" : " [INCOMPLETE]");
  if (!report->complete) {
    std::printf(
        "  missing_end=%llu orphans=%llu dropped=%llu crashes=%llu\n",
        static_cast<unsigned long long>(report->missing_end),
        static_cast<unsigned long long>(report->orphans),
        static_cast<unsigned long long>(report->dropped),
        static_cast<unsigned long long>(report->crashes));
  }
  for (size_t i = 0; i < report->clock_offsets.size(); ++i) {
    if (report->clock_offsets[i] != 0.0) {
      std::printf("  clock offset journal[%zu] (+%.3f)\n", i,
                  report->clock_offsets[i]);
    }
  }
  Status st;
  if (format == "chrome") {
    st = obs::WriteChromeTrace(report->tracer, out);
  } else if (format == "jsonl") {
    st = obs::WriteTraceJsonl(report->tracer, out);
  } else if (format == "ascii") {
    const std::string tree = report->tracer.ToAscii();
    if (out.empty()) {
      std::fputs(tree.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(out.c_str(), "w");
      if (f == nullptr) {
        st = Status::Internal("cannot open " + out);
      } else {
        std::fputs(tree.c_str(), f);
        std::fclose(f);
      }
    }
  } else {
    std::fprintf(stderr, "unknown --format=%s (ascii | chrome | jsonl)\n",
                 format.c_str());
    return 2;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "writing %s: %s\n", out.c_str(),
                 st.message().c_str());
    return 1;
  }
  if (!out.empty()) {
    std::printf("trace -> %s (%s)\n", out.c_str(), format.c_str());
  }
  return 0;
}

int RunQuery(int argc, char** argv) {
  std::string query = "topk";
  std::string dataset = "uniform";
  std::string engine_kind = "sync";
  int64_t peers = 1024;
  int64_t dims = 3;
  int64_t tuples = 20000;
  int64_t k = 10;
  int64_t band = 2;
  int64_t seed = 1;
  std::string ripple_r = "fast";
  double lambda = 0.5;
  double radius = 0.1;
  double epsilon = 0.0;
  bool patterns = false;
  int64_t show = 10;
  double loss = 0.0;
  double dup = 0.0;
  double jitter = 0.0;
  double crash_rate = 0.0;
  double crash_window = 64.0;
  int64_t fault_seed = 0;
  double timeout = 32.0;
  int64_t max_retries = 3;
  double deadline = 0.0;
  std::string workload;
  int64_t threads = 1;
  double qps_target = 0.0;
  int64_t queue_cap = 64;
  bool cache_on = false;
  int64_t cache_cap = 256;
  int64_t cache_ttl = 0;
  int64_t repeat = 1;
  std::string trace_out;
  std::string metrics_out;
  std::string profile_out;
  std::string journal_out;
  double trace_sample = 0.0;
  std::string snapshot_out;
  double snapshot_every_ms = 50.0;
  double slow_query_ms = 0.0;
  std::string log_level;

  FlagParser flags(
      "ripple_cli: distributed rank queries over a simulated MIDAS overlay");
  flags.AddString("query",
                  "topk | skyline | skyband | range | diversify", &query);
  flags.AddString("dataset",
                  "uniform | synth | correlated | anticorrelated | nba | "
                  "mirflickr",
                  &dataset);
  flags.AddString("engine",
                  "sync (recursive, analytic latency) | async "
                  "(discrete-event messages; honors the fault flags)",
                  &engine_kind);
  flags.AddInt("peers", "overlay size", &peers);
  flags.AddInt("dims", "dimensionality (nba fixes 6, mirflickr 5)", &dims);
  flags.AddInt("tuples", "dataset size (nba fixes 22000)", &tuples);
  flags.AddInt("k", "result size for topk/diversify", &k);
  flags.AddInt("band", "skyband depth", &band);
  flags.AddInt("seed", "master seed", &seed);
  flags.AddString("r",
                  "ripple parameter: 'fast', 'slow', a hop count, or "
                  "'auto' (adaptive controller, docs/CACHING.md)",
                  &ripple_r);
  flags.AddDouble("lambda", "diversification relevance weight", &lambda);
  flags.AddDouble("radius", "range query radius (L2)", &radius);
  flags.AddDouble("epsilon", "top-k approximation slack (0 = exact)",
                  &epsilon);
  flags.AddBool("patterns", "enable the border-pattern optimization",
                &patterns);
  flags.AddInt("show", "answer tuples to print", &show);
  flags.AddDouble("loss", "message loss probability (async engine)", &loss);
  flags.AddDouble("dup", "message duplication probability (async)", &dup);
  flags.AddDouble("jitter", "max extra delay fraction per message (async)",
                  &jitter);
  flags.AddDouble("crash-rate", "per-peer crash probability (async)",
                  &crash_rate);
  flags.AddDouble("crash-window", "crashes drawn in [0, window) sim time",
                  &crash_window);
  flags.AddInt("fault-seed", "fault stream seed (default: --seed)",
               &fault_seed);
  flags.AddDouble("timeout", "initial per-message retry timeout (async)",
                  &timeout);
  flags.AddInt("max-retries", "retransmissions before giving a link up",
               &max_retries);
  flags.AddDouble("deadline",
                  "return a flagged partial answer after this much sim "
                  "time (0 = none; async)",
                  &deadline);
  flags.AddString("workload",
                  "run a multi-query workload through the concurrent "
                  "executor instead of one --query: a workload file path "
                  "(one query per line, see docs/EXECUTOR.md), or "
                  "'default:<N>' for the built-in N-query mix",
                  &workload);
  flags.AddInt("threads", "executor worker-pool size (workload mode)",
               &threads);
  flags.AddDouble("qps-target",
                  "admission pacing in queries/second, 0 = as fast as "
                  "backpressure allows (workload mode)",
                  &qps_target);
  flags.AddInt("queue-cap",
               "bounded admission-queue capacity per worker (workload "
               "mode)",
               &queue_cap);
  flags.AddBool("cache",
                "initiator-side answer/bound cache + duplicate batching "
                "(workload mode; incompatible with fault injection — a "
                "cached answer would mask the degradation)",
                &cache_on);
  flags.AddInt("cache-cap", "cache capacity in entries (LRU beyond it)",
               &cache_cap);
  flags.AddInt("cache-ttl",
               "cache TTL in logical ticks (one tick per executed query; "
               "0 = no expiry)",
               &cache_ttl);
  flags.AddInt("repeat",
               "run the workload this many times through the same cache/"
               "controller (workload mode; later passes hit what earlier "
               "passes inserted)",
               &repeat);
  flags.AddString("trace-out",
                  "write the query's span tree here: Chrome Trace Event "
                  "JSON, or JSONL when the path ends in .jsonl",
                  &trace_out);
  flags.AddString("metrics-out",
                  "write counters / gauges / histograms here as JSON "
                  "(includes a per-peer profile section)",
                  &metrics_out);
  flags.AddString("profile-out",
                  "write the per-peer load profile here as JSON: totals, "
                  "skew stats (Gini, peak/mean) and the hotspot table",
                  &profile_out);
  flags.AddString("journal-out",
                  "write per-peer event journals (peer-<id>.jsonl) into "
                  "this directory; reassemble offline with the "
                  "trace-assemble subcommand. Single-query mode "
                  "force-samples the query; workload mode samples per "
                  "--trace-sample (defaulting it to 1.0)",
                  &journal_out);
  flags.AddDouble("trace-sample",
                  "head-based trace sampling probability in [0,1] for "
                  "workload mode (decided once per query at the "
                  "initiator; the decision rides the v2 frame header)",
                  &trace_sample);
  flags.AddString("snapshot-out",
                  "write windowed metrics snapshots plus the slow-query "
                  "log here as JSON (workload mode)",
                  &snapshot_out);
  flags.AddDouble("snapshot-every-ms",
                  "snapshot capture period in wall-clock ms",
                  &snapshot_every_ms);
  flags.AddDouble("slow-query-ms",
                  "record executed queries slower than this admission-to-"
                  "completion latency into the slow-query log, force-"
                  "sampling ones head sampling skipped (0 = off)",
                  &slow_query_ms);
  flags.AddString("log-level",
                  "error | warn | info | debug | trace (default: "
                  "RIPPLE_LOG_LEVEL or warn)",
                  &log_level);

  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return parsed.code() == StatusCode::kFailedPrecondition ? 0 : 2;
  }
  if (dataset == "nba") {
    dims = 6;
    tuples = 22000;
  }
  if (dataset == "mirflickr") dims = 5;
  if (!log_level.empty()) {
    SetGlobalLogLevel(ParseLogLevel(log_level, LogLevel::kWarn));
  }
  const bool async_mode = engine_kind == "async";
  if (!async_mode && engine_kind != "sync") {
    std::fprintf(stderr, "unknown --engine=%s (sync | async)\n",
                 engine_kind.c_str());
    return 2;
  }
  const Result<RippleParam> ripple = RippleParam::Parse(ripple_r);
  if (!ripple.ok()) {
    std::fprintf(stderr, "bad --r: %s\n",
                 ripple.status().message().c_str());
    return 2;
  }
  // Enable the global registry before the overlay is built so the
  // bootstrap joins' routing shows up under midas.route.* too.
  if (!metrics_out.empty() || !snapshot_out.empty()) {
    obs::Registry::EnableGlobal(true);
  }
  obs::Tracer tracer;
  obs::Tracer* tracer_ptr =
      (!trace_out.empty() || !metrics_out.empty() || !journal_out.empty())
          ? &tracer
          : nullptr;
  // Distributed tracing: one JournalSet shared by the tracer (span
  // mirroring) and every engine (frame events). Single-query mode
  // force-samples the query — head sampling is a workload-scale tool —
  // so qtrace is nonzero exactly when journaling is on.
  obs::JournalSet journal;
  obs::JournalSet* journal_ptr = journal_out.empty() ? nullptr : &journal;
  // The engines attach the journal (and the trace id) to their tracer
  // inside Run(); the main tracer must NOT be pre-attached, or workload
  // mode's span merge would re-journal every worker span as a begin
  // without an end.
  const uint64_t qtrace =
      journal_out.empty() ? 0 : (static_cast<uint64_t>(seed) | 1ULL);
  // Same for the global profiler: enabling it before the joins run means
  // RecordRouteStep charges the bootstrap routing hops to the peers that
  // forwarded them, alongside the query-time load the engines record.
  const bool want_profile = !profile_out.empty() || !metrics_out.empty();
  obs::Profiler* profiler_ptr = nullptr;
  if (want_profile) {
    obs::Profiler::Global().Clear();
    obs::Profiler::EnableGlobal(true);
    profiler_ptr = &obs::Profiler::Global();
  }

  // Build the network: data first, then joins (median splits follow data).
  Rng data_rng(static_cast<uint64_t>(seed) * 7919);
  const TupleVec data = data::MakeByName(dataset, tuples, dims, &data_rng);
  MidasOptions opt;
  opt.dims = static_cast<int>(dims);
  opt.seed = static_cast<uint64_t>(seed);
  opt.split_rule = MidasSplitRule::kDataMedian;
  opt.border_pattern_links = patterns;
  MidasOverlay overlay(opt);
  for (const Tuple& t : data) overlay.InsertTuple(t);
  while (overlay.NumPeers() < static_cast<size_t>(peers)) overlay.Join();
  std::printf("%s over %zu peers (depth %d), %zu tuples, r=%s, engine=%s\n",
              dataset.c_str(), overlay.NumPeers(), overlay.MaxDepth(),
              overlay.TotalTuples(), ripple->ToString().c_str(),
              async_mode ? "async" : "sync");

  net::FaultOptions fault;
  fault.loss_rate = loss;
  fault.dup_rate = dup;
  fault.delay_jitter = jitter;
  fault.crash_rate = crash_rate;
  fault.crash_window = crash_window;
  fault.seed = static_cast<uint64_t>(fault_seed != 0 ? fault_seed : seed);
  net::RetryOptions retry;
  retry.timeout = timeout;
  retry.max_retries = static_cast<int>(max_retries);
  if (fault.AnyFault() && !async_mode) {
    std::fprintf(stderr,
                 "fault flags need --engine=async (the sync engine models "
                 "a perfect network)\n");
    return 2;
  }
  if (cache_on && fault.AnyFault()) {
    std::fprintf(stderr,
                 "--cache is incompatible with fault injection: a cached "
                 "answer would mask the degradation the faults produce "
                 "(and churn/crash events invalidate the cache anyway)\n");
    return 2;
  }

  // The adaptive ripple controller behind --r=auto / r=auto workload
  // items: deterministic, seeded, fed sequentially (docs/CACHING.md).
  cache::AdaptiveController controller(
      cache::DepthHint(overlay.NumPeers()));

  RippleParam ripple_param = *ripple;
  if (ripple_param.is_auto()) {
    ripple_param = controller.Choose();
    std::printf("r=auto -> %s (%s)\n", ripple_param.ToString().c_str(),
                controller.Summary().c_str());
  }

  Rng rng(static_cast<uint64_t>(seed) ^ 0x5555);
  const PeerId initiator = overlay.RandomPeer(&rng);
  const double deadline_or_inf =
      deadline > 0 ? deadline : std::numeric_limits<double>::infinity();
  TupleVec answer;
  QueryStats stats;
  net::Coverage coverage;
  bool complete = true;
  double completion_time = 0.0;
  const bool workload_mode = !workload.empty();

  if (workload_mode) {
    // Multi-query throughput mode: compile the workload and drive it
    // through the concurrent executor (--query is ignored here; the mix
    // comes from the workload spec).
    std::vector<exec::WorkloadItem> items;
    if (workload == "default" || workload.rfind("default:", 0) == 0) {
      int64_t n = 16;
      if (workload.rfind("default:", 0) == 0) {
        n = std::atoll(workload.c_str() + 8);
      }
      if (n <= 0) {
        std::fprintf(stderr, "bad --workload=%s (want default:<N>, N > 0)\n",
                     workload.c_str());
        return 2;
      }
      items = exec::DefaultWorkloadMix(static_cast<size_t>(n));
    } else {
      Result<std::vector<exec::WorkloadItem>> loaded =
          exec::LoadWorkloadFile(workload);
      if (!loaded.ok()) {
        std::fprintf(stderr, "--workload: %s\n",
                     loaded.status().message().c_str());
        return 2;
      }
      items = std::move(*loaded);
    }

    exec::CompileOptions copts;
    copts.seed = static_cast<uint64_t>(seed);
    copts.async = async_mode;
    copts.fault = fault;
    copts.retry = retry;
    // Head sampling: an explicit --trace-sample wins; otherwise journaling
    // implies sampling everything (a journal of zero traces is useless).
    copts.trace_sample =
        trace_sample > 0.0 ? trace_sample
                           : (journal_ptr != nullptr ? 1.0 : 0.0);
    obs::SnapshotSeries snapshots(&obs::Registry::Global());
    obs::SlowQueryLog slow_log(slow_query_ms);
    exec::ExecutorOptions eopts;
    eopts.threads = static_cast<int>(threads);
    eopts.queue_capacity = static_cast<size_t>(queue_cap > 0 ? queue_cap : 1);
    eopts.seed = static_cast<uint64_t>(seed);
    eopts.qps_target = qps_target;
    eopts.collect_spans = tracer_ptr != nullptr;
    eopts.journal = journal_ptr;
    if (!snapshot_out.empty()) {
      eopts.snapshots = &snapshots;
      eopts.snapshot_every_ms = snapshot_every_ms > 0 ? snapshot_every_ms : 50;
    }
    if (slow_query_ms > 0.0) eopts.slow_log = &slow_log;
    exec::Executor executor(eopts);
    std::printf("executing %zu queries on %lld thread(s)%s\n", items.size(),
                static_cast<long long>(eopts.threads),
                qps_target > 0 ? " (paced)" : "");

    // Batched execution engages when the cache is on (answer/bound reuse
    // plus duplicate merging) or any item asked for r=auto (the engines
    // treat unresolved Auto as fast, so the plan must resolve it).
    // Plain workloads keep the legacy compile-and-run path so their
    // duplicate items still execute individually.
    const bool any_auto = std::any_of(
        items.begin(), items.end(),
        [](const exec::WorkloadItem& it) { return it.ripple.is_auto(); });
    cache::CacheOptions cache_copts;
    cache_copts.capacity =
        static_cast<size_t>(cache_cap > 0 ? cache_cap : 1);
    cache_copts.ttl_ticks =
        cache_ttl > 0 ? static_cast<uint64_t>(cache_ttl) : 0;
    cache::QueryCache qcache(cache_copts);
    exec::WorkloadResult result;
    const int64_t passes = repeat > 0 ? repeat : 1;
    if (cache_on || any_auto) {
      exec::BatchOptions bopts;
      bopts.cache = cache_on ? &qcache : nullptr;
      bopts.controller = &controller;
      bopts.merge_duplicates = cache_on;
      for (int64_t pass = 0; pass < passes; ++pass) {
        exec::BatchPlan plan;
        result = exec::RunBatchedWorkload(executor, overlay, items, copts,
                                          bopts, &plan);
        std::printf("pass %lld/%lld: %zu lead, %zu merged, %zu cache hit\n",
                    static_cast<long long>(pass + 1),
                    static_cast<long long>(passes), plan.leads, plan.follows,
                    plan.hits);
      }
      if (cache_on) {
        std::printf("cache: %s\n", qcache.stats().ToString().c_str());
        cache::RecordCacheMetrics(qcache.stats());
      }
      if (any_auto) {
        std::printf("controller: %s\n", controller.Summary().c_str());
      }
    } else {
      exec::CompiledWorkload compiled =
          exec::CompileWorkload(overlay, items, copts);
      for (int64_t pass = 0; pass < passes; ++pass) {
        result = executor.Run(compiled.jobs, overlay.NumPeers());
      }
    }

    std::printf("%s\n", result.Summary().c_str());
    std::map<std::string, std::pair<size_t, size_t>> by_kind;  // {ran, shed}
    std::map<std::string, double> kind_ms;
    for (const exec::QueryOutcome& out : result.queries) {
      const std::string kind =
          exec::WorkloadKindName(items[out.index].kind);
      auto& slot = by_kind[kind];
      if (out.shed) {
        ++slot.second;
        continue;
      }
      ++slot.first;
      kind_ms[kind] += out.total_ms;
    }
    for (const auto& [kind, counts] : by_kind) {
      std::printf("  %-8s %4zu ran, %zu shed, mean latency %.2f ms\n",
                  kind.c_str(), counts.first, counts.second,
                  counts.first > 0 ? kind_ms[kind] / counts.first : 0.0);
    }
    if (result.partial > 0) {
      std::printf("WARNING: %zu partial answers — sound digests of what "
                  "was reachable, not exact results\n",
                  result.partial);
    }

    // Feed the shared export paths below: totals into the metrics block,
    // admission spans into --trace-out, the merged per-peer load of the
    // whole workload into the global profiler next to the bootstrap
    // routing charges it already holds.
    stats = result.total_stats;
    coverage = result.coverage;
    complete = result.partial == 0 && result.shed == 0;
    for (const exec::QueryOutcome& out : result.queries) {
      completion_time = std::max(completion_time, out.completion_time);
    }
    for (const obs::Tracer& t : executor.worker_tracers()) {
      MergeSpans(t, &tracer);
    }
    if (want_profile) obs::Profiler::Global().Merge(result.profile);
    if (slow_query_ms > 0.0) {
      std::printf("slow queries (>= %.1f ms): %zu recorded, %llu dropped\n",
                  slow_query_ms, slow_log.Entries().size(),
                  static_cast<unsigned long long>(slow_log.dropped()));
    }
    if (!snapshot_out.empty()) {
      const Status st = obs::WriteSnapshotJson(
          &snapshots, slow_query_ms > 0.0 ? &slow_log : nullptr,
          snapshot_out);
      if (!st.ok()) {
        std::fprintf(stderr, "snapshot export failed: %s\n",
                     st.message().c_str());
        return 1;
      }
      std::printf("snapshots: %zu windows -> %s\n", snapshots.size(),
                  snapshot_out.c_str());
    }
  } else if (query == "topk") {
    std::vector<double> weights(dims);
    double sum = 0;
    for (auto& w : weights) sum += (w = 0.1 + rng.UniformDouble());
    for (auto& w : weights) w = -w / sum;
    LinearScorer scorer(weights);
    const QueryRequest<TopKPolicy> request{
        .initiator = initiator,
        .query = TopKQuery{&scorer, static_cast<size_t>(k), epsilon},
        .ripple = ripple_param,
        .deadline = deadline_or_inf,
        .retry = retry,
        .fault = fault,
        .trace_id = qtrace};
    auto result = RunWithEngine<TopKPolicy>(
        overlay, async_mode, tracer_ptr, profiler_ptr, journal_ptr,
        [&](auto& engine) { return SeededTopK(overlay, engine, request); });
    std::printf("scoring: %s\n", scorer.ToString().c_str());
    answer = std::move(result.answer);
    stats = result.stats;
    coverage = result.coverage;
    complete = result.complete;
    completion_time = result.completion_time;
  } else if (query == "skyline") {
    const QueryRequest<SkylinePolicy> request{.initiator = initiator,
                                              .ripple = ripple_param,
                                              .deadline = deadline_or_inf,
                                              .retry = retry,
                                              .fault = fault,
                                              .trace_id = qtrace};
    auto result = RunWithEngine<SkylinePolicy>(
        overlay, async_mode, tracer_ptr, profiler_ptr, journal_ptr,
        [&](auto& engine) { return SeededSkyline(overlay, engine, request); });
    answer = std::move(result.answer);
    stats = result.stats;
    coverage = result.coverage;
    complete = result.complete;
    completion_time = result.completion_time;
  } else if (query == "skyband") {
    SkybandQuery q;
    q.band = static_cast<size_t>(band);
    const QueryRequest<SkybandPolicy> request{.initiator = initiator,
                                              .query = q,
                                              .ripple = ripple_param,
                                              .deadline = deadline_or_inf,
                                              .retry = retry,
                                              .fault = fault,
                                              .trace_id = qtrace};
    auto result = RunWithEngine<SkybandPolicy>(
        overlay, async_mode, tracer_ptr, profiler_ptr, journal_ptr,
        [&](auto& engine) { return engine.Run(request); });
    answer = std::move(result.answer);
    stats = result.stats;
    coverage = result.coverage;
    complete = result.complete;
    completion_time = result.completion_time;
  } else if (query == "range") {
    RangeQuery q;
    q.center = data[rng.UniformU64(data.size())].key;
    q.radius = radius;
    std::printf("range center: %s radius %.3f\n", q.center.ToString().c_str(),
                radius);
    const QueryRequest<RangePolicy> request{.initiator = initiator,
                                            .query = q,
                                            .ripple = ripple_param,
                                            .deadline = deadline_or_inf,
                                            .retry = retry,
                                            .fault = fault,
                                            .trace_id = qtrace};
    auto result = RunWithEngine<RangePolicy>(
        overlay, async_mode, tracer_ptr, profiler_ptr, journal_ptr,
        [&](auto& engine) { return engine.Run(request); });
    answer = std::move(result.answer);
    stats = result.stats;
    coverage = result.coverage;
    complete = result.complete;
    completion_time = result.completion_time;
  } else if (query == "diversify") {
    DiversifyObjective obj;
    obj.query = data[rng.UniformU64(data.size())].key;
    obj.lambda = lambda;
    obj.norm = Norm::kL1;
    std::printf("diversify around %s, lambda %.2f\n",
                obj.query.ToString().c_str(), lambda);
    const QueryRequest<DivPolicy> base{.initiator = initiator,
                                       .ripple = ripple_param,
                                       .deadline = deadline_or_inf,
                                       .retry = retry,
                                       .fault = fault,
                                       .trace_id = qtrace};
    std::unique_ptr<SingleTupleService> service;
    if (async_mode) {
      auto s = std::make_unique<
          RippleDivService<MidasOverlay, AsyncEngine<MidasOverlay, DivPolicy>>>(
          &overlay, base);
      s->mutable_engine()->SetTracer(tracer_ptr);
      s->mutable_engine()->SetProfiler(profiler_ptr);
      s->mutable_engine()->SetJournal(journal_ptr);
      service = std::move(s);
    } else {
      auto s = std::make_unique<RippleDivService<MidasOverlay>>(&overlay,
                                                                base);
      s->mutable_engine()->SetTracer(tracer_ptr);
      s->mutable_engine()->SetProfiler(profiler_ptr);
      s->mutable_engine()->SetJournal(journal_ptr);
      service = std::move(s);
    }
    DiversifyOptions options;
    options.k = static_cast<size_t>(k);
    options.service_init = true;
    auto result = Diversify(service.get(), obj, {}, options);
    std::printf("objective %.4f after %d improve rounds\n", result.objective,
                result.improve_rounds);
    answer = std::move(result.set);
    stats = result.stats;
    coverage = result.coverage;
    complete = result.complete;
  } else {
    std::fprintf(stderr, "unknown --query=%s\n%s\n", query.c_str(),
                 flags.Help().c_str());
    return 2;
  }

  std::printf("cost: %s\n", stats.ToString().c_str());
  if (async_mode) {
    std::printf("completion: %.1f sim time units%s\n", completion_time,
                workload_mode ? " (last query)" : "");
    std::printf("coverage: %s\n", coverage.ToString().c_str());
    if (!complete && !workload_mode) {
      std::printf("WARNING: partial answer — a sound digest of what was "
                  "reachable, not the exact result\n");
    }
  }
  if (!workload_mode) {
    std::printf("answer: %zu tuples\n", answer.size());
    for (size_t i = 0; i < answer.size() && i < static_cast<size_t>(show);
         ++i) {
      std::printf("  %s\n", answer[i].ToString().c_str());
    }
    if (answer.size() > static_cast<size_t>(show)) {
      std::printf("  ... and %zu more\n",
                  answer.size() - static_cast<size_t>(show));
    }
  }

  if (journal_ptr != nullptr) {
    const Status st = journal.WriteDir(journal_out);
    if (!st.ok()) {
      std::fprintf(stderr, "journal export failed: %s\n",
                   st.message().c_str());
      return 1;
    }
    std::printf("journal: %zu peer file(s), %llu event(s) (%llu dropped) "
                "-> %s\n",
                journal.Peers().size(),
                static_cast<unsigned long long>(journal.TotalEvents()),
                static_cast<unsigned long long>(journal.TotalDropped()),
                journal_out.c_str());
  }
  if (!trace_out.empty()) {
    const bool jsonl = trace_out.size() >= 6 &&
                       trace_out.compare(trace_out.size() - 6, 6, ".jsonl") ==
                           0;
    const Status st = jsonl ? obs::WriteTraceJsonl(tracer, trace_out)
                            : obs::WriteChromeTrace(tracer, trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   st.message().c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s (%s)\n", tracer.span_count(),
                trace_out.c_str(), jsonl ? "jsonl" : "chrome-trace");
  }
  if (want_profile) {
    // Declare the whole overlay tracked so idle_fraction / Gini use the
    // true peer count, then freeze recording before export.
    obs::Profiler::Global().SetPeerUniverse(overlay.NumPeers());
    obs::Profiler::EnableGlobal(false);
  }
  if (!profile_out.empty()) {
    const obs::Profiler& prof = obs::Profiler::Global();
    const Status st = obs::WriteProfileJson(prof, profile_out);
    if (!st.ok()) {
      std::fprintf(stderr, "profile export failed: %s\n",
                   st.message().c_str());
      return 1;
    }
    std::printf("profile: %zu peers -> %s\n%s", prof.peer_count(),
                profile_out.c_str(), prof.Summary().c_str());
  }
  if (!metrics_out.empty()) {
    obs::Registry& reg = obs::Registry::Global();
    reg.GetCounter("query.peers_visited").Inc(stats.peers_visited);
    reg.GetCounter("query.messages").Inc(stats.messages);
    reg.GetCounter("query.tuples_shipped").Inc(stats.tuples_shipped);
    reg.GetGauge("query.latency_hops")
        .Set(static_cast<double>(stats.latency_hops));
    reg.GetGauge("overlay.peers").Set(static_cast<double>(overlay.NumPeers()));
    reg.GetGauge("overlay.depth").Set(static_cast<double>(overlay.MaxDepth()));
    obs::Histogram& arrival = reg.GetHistogram("query.span_arrival_hops");
    obs::Histogram& load = reg.GetHistogram("query.peer_load");
    std::map<uint32_t, uint64_t> visits_per_peer;
    for (const obs::Span& s : tracer.spans()) {
      arrival.Observe(s.start);
      ++visits_per_peer[s.peer];
    }
    for (const auto& [peer, visits] : visits_per_peer) {
      (void)peer;
      load.Observe(static_cast<double>(visits));
    }
    const Status st =
        obs::WriteMetricsJson(reg, metrics_out, &obs::Profiler::Global());
    if (!st.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   st.message().c_str());
      return 1;
    }
    std::printf("metrics -> %s\n%s", metrics_out.c_str(),
                reg.Summary().c_str());
  }
  return 0;
}

}  // namespace ripple

namespace {

constexpr char kUsage[] =
    "usage: ripple_cli <command> [flags]  (`ripple_cli <command> --help`)\n"
    "\n"
    "  run            one query or a workload on the simulated overlay\n"
    "  serve          one live-overlay daemon process (UDP sockets)\n"
    "  net-bench      wall-clock workload driver against a live overlay\n"
    "  monitor        admin-protocol cluster scraper / readiness probe\n"
    "  trace-assemble merge per-peer journals into one span tree\n";

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && argv[1][0] != '-') {
    const std::string cmd = argv[1];
    if (cmd == "run") return ripple::RunQuery(argc - 1, argv + 1);
    if (cmd == "serve") return ripple::RunServe(argc - 1, argv + 1);
    if (cmd == "net-bench") return ripple::RunNetBench(argc - 1, argv + 1);
    if (cmd == "monitor") return ripple::RunMonitor(argc - 1, argv + 1);
    if (cmd == "trace-assemble") {
      return ripple::RunTraceAssemble(argc - 1, argv + 1);
    }
    if (cmd == "help") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    std::fprintf(stderr, "unknown command '%s'\n\n%s", argv[1], kUsage);
    return 2;
  }
  if (argc >= 2) {
    std::fprintf(stderr, "expected a command before '%s'\n\n%s", argv[1],
                 kUsage);
    return 2;
  }
  std::fputs(kUsage, stdout);
  return 0;
}
