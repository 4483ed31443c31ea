#include "exec/executor.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "exec/queue.h"

namespace ripple::exec {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One admitted query in flight between the admission loop and a worker.
struct Task {
  size_t index = 0;
  Clock::time_point admitted{};
};

/// The exec.* instruments, resolved once (single-threaded, before the pool
/// starts) so workers only touch atomic Counter/Gauge methods and never
/// the registry's map. Null pointers when the global registry is off.
struct ExecInstruments {
  obs::Counter* submitted = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* shed = nullptr;
  obs::Counter* partial = nullptr;
  obs::Gauge* queue_depth = nullptr;
  std::vector<obs::Counter*> worker_completed;

  static ExecInstruments Resolve(int threads) {
    ExecInstruments ins;
    if (!obs::Registry::GlobalEnabled()) return ins;
    obs::Registry& reg = obs::Registry::Global();
    ins.submitted = &reg.GetCounter("exec.submitted");
    ins.completed = &reg.GetCounter("exec.completed");
    ins.shed = &reg.GetCounter("exec.shed");
    ins.partial = &reg.GetCounter("exec.partial");
    ins.queue_depth = &reg.GetGauge("exec.queue_depth");
    ins.worker_completed.reserve(threads);
    for (int w = 0; w < threads; ++w) {
      ins.worker_completed.push_back(
          &reg.GetCounter("exec.worker." + std::to_string(w) + ".completed"));
    }
    return ins;
  }
};

}  // namespace

std::string WorkloadResult::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "workload: %zu queries (%zu ok, %zu partial, %zu shed) | "
      "wall %.3fs | %.1f qps | latency ms p50=%.2f p95=%.2f p99=%.2f "
      "max=%.2f | visits total=%llu max-peer=%llu",
      queries.size(), completed - partial, partial, shed, wall_s, qps,
      latency_ms.Percentile(50), latency_ms.Percentile(95),
      latency_ms.Percentile(99), latency_ms.max(),
      static_cast<unsigned long long>(total_stats.peers_visited),
      static_cast<unsigned long long>(
          profile.Skew(&obs::PeerLoad::spans).max));
  return std::string(buf);
}

WorkloadResult Executor::Run(const std::vector<Job>& jobs,
                             size_t peer_universe) {
  const int threads = options_.threads;
  const ExecInstruments ins = ExecInstruments::Resolve(threads);

  WorkloadResult result;
  result.queries.resize(jobs.size());

  std::vector<obs::Profiler> profilers(threads);
  tracers_.assign(threads, obs::Tracer());

  // One queue for the whole pool: an idle worker takes the next job, so
  // a worker stuck on an expensive query never holds back cheap ones.
  BoundedQueue<Task> queue(options_.queue_capacity *
                           static_cast<size_t>(threads));

  std::atomic<int64_t> queued{0};
  const Clock::time_point t0 = Clock::now();

  auto worker_fn = [&](int w) {
    Rng rng;
    JobContext ctx;
    ctx.worker = w;
    ctx.rng = &rng;
    // The worker tracer mirrors its admission spans into the shared
    // journal, each under the trace id of the job it wraps.
    ctx.sink = obs::Sink(options_.collect_spans ? &tracers_[w] : nullptr,
                         &profilers[w], options_.journal);

    Task task;
    while (queue.Pop(&task)) {
      queued.fetch_sub(1, std::memory_order_relaxed);
      if (ins.queue_depth != nullptr) {
        ins.queue_depth->Set(
            static_cast<double>(queued.load(std::memory_order_relaxed)));
      }
      const Clock::time_point popped = Clock::now();
      const Job& job = jobs[task.index];
      QueryOutcome& out = result.queries[task.index];
      out.index = task.index;
      out.worker = w;
      out.wait_ms = MsBetween(task.admitted, popped);

      if (std::isfinite(job.deadline_ms) && out.wait_ms > job.deadline_ms) {
        out.shed = true;
        out.complete = false;
        out.total_ms = out.wait_ms;
        if (ins.shed != nullptr) ins.shed->Inc();
        continue;
      }

      // Distinct stream per (seed, job); the multiplier keeps
      // (seed, job) pairs from colliding across nearby seeds.
      rng = Rng(options_.seed * 0x100000001b3ULL +
                static_cast<uint64_t>(task.index) + 1);
      JobResult r = job.run(ctx);
      const Clock::time_point done = Clock::now();
      out.answer = std::move(r.answer);
      out.stats = r.stats;
      out.coverage = r.coverage;
      out.complete = r.complete;
      out.completion_time = r.completion_time;
      out.initiator = r.initiator;
      out.trace_id = r.trace_id;
      out.run_ms = MsBetween(popped, done);
      out.total_ms = MsBetween(task.admitted, done);

      if (options_.slow_log != nullptr) {
        options_.slow_log->Observe(job.label, out.trace_id, out.total_ms,
                                   MsBetween(t0, done), out.trace_id != 0);
      }

      if (obs::Tracer* tracer = ctx.sink.tracer()) {
        tracer->set_trace_id(out.trace_id);
        const uint32_t id = tracer->StartSpan(
            static_cast<uint32_t>(out.initiator), obs::kNoSpan,
            obs::SpanKind::kAdmission, 0, MsBetween(t0, task.admitted));
        obs::Span& span = tracer->span(id);
        span.tuples_in = out.stats.tuples_shipped;
        span.answer_tuples = out.answer.size();
        tracer->EndSpan(id, MsBetween(t0, done));
      }
      if (ins.completed != nullptr) ins.completed->Inc();
      if (!out.complete && ins.partial != nullptr) ins.partial->Inc();
      if (w < static_cast<int>(ins.worker_completed.size())) {
        ins.worker_completed[w]->Inc();
      }
    }
  };

  // Periodic registry snapshots are driven from this (single) admission
  // thread; Capture goes through the registry's locked value reads, so
  // racing worker-side metric creation is safe.
  const bool snapshotting =
      options_.snapshots != nullptr && options_.snapshot_every_ms > 0.0;
  double next_snapshot_ms = 0.0;
  auto maybe_snapshot = [&] {
    if (!snapshotting) return;
    const double now_ms = MsBetween(t0, Clock::now());
    if (now_ms >= next_snapshot_ms) {
      options_.snapshots->Capture(now_ms);
      next_snapshot_ms = now_ms + options_.snapshot_every_ms;
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  {
    for (int w = 0; w < threads; ++w) pool.emplace_back(worker_fn, w);

    maybe_snapshot();  // the t=0 baseline capture
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (options_.qps_target > 0.0) {
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(i) /
                                                   options_.qps_target));
        std::this_thread::sleep_until(due);
      }
      Task task;
      task.index = i;
      task.admitted = Clock::now();
      // Push blocks while the queue is full: backpressure throttles
      // admission instead of buffering unboundedly.
      queue.Push(std::move(task));
      queued.fetch_add(1, std::memory_order_relaxed);
      if (ins.submitted != nullptr) ins.submitted->Inc();
      if (ins.queue_depth != nullptr) {
        ins.queue_depth->Set(
            static_cast<double>(queued.load(std::memory_order_relaxed)));
      }
      maybe_snapshot();
    }
    queue.Close();
    for (std::thread& t : pool) t.join();
    if (snapshotting) {
      // Final capture after the drain, so the last window covers the
      // tail of the workload.
      options_.snapshots->Capture(MsBetween(t0, Clock::now()));
    }
  }

  result.wall_s = MsBetween(t0, Clock::now()) / 1000.0;
  result.profile.SetPeerUniverse(peer_universe);
  for (const obs::Profiler& p : profilers) result.profile.Merge(p);

  for (const QueryOutcome& out : result.queries) {
    if (out.shed) {
      ++result.shed;
      continue;
    }
    ++result.completed;
    if (!out.complete) ++result.partial;
    result.total_stats += out.stats;
    result.coverage += out.coverage;
    result.latency_ms.Observe(out.total_ms);
    result.wait_ms.Observe(out.wait_ms);
    result.run_ms.Observe(out.run_ms);
  }
  result.qps =
      result.wall_s > 0.0 ? result.completed / result.wall_s : 0.0;
  return result;
}

}  // namespace ripple::exec
