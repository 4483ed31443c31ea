#include "exec/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "exec/batch.h"
#include "exec/compile.h"
#include "exec/queue.h"
#include "exec/workload.h"
#include "geom/scoring.h"
#include "overlay/midas/midas.h"

namespace ripple::exec {
namespace {

// --- BoundedQueue -------------------------------------------------------------

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99)) << "queue is full";
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, ZeroCapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_FALSE(q.TryPush(2));
}

TEST(BoundedQueueTest, CloseDrainsThenStops) {
  BoundedQueue<int> q(8);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3)) << "closed queue rejects pushes";
  int v = -1;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(&v)) << "closed and drained";
}

TEST(BoundedQueueTest, PushBlocksUntilPopped) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.TryPush(0));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(1));  // blocks: capacity 1 and the queue is full
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load()) << "Push must block while full";
  int v = -1;
  ASSERT_TRUE(q.Pop(&v));
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.TryPush(0));
  std::thread producer([&] { EXPECT_FALSE(q.Push(1)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
}

TEST(BoundedQueueTest, ManyConsumersPopEachItemOnce) {
  // The executor's workers share one queue: every item must reach exactly
  // one consumer, and items still queued at Close must be drained.
  constexpr int kItems = 10000;
  constexpr int kConsumers = 4;
  BoundedQueue<int> q(16);
  std::vector<std::vector<int>> popped(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&q, &popped, c] {
      int v = -1;
      while (q.Pop(&v)) popped[c].push_back(v);
    });
  }
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(q.Push(i));
  q.Close();  // items still queued here must be drained, not dropped
  for (std::thread& t : consumers) t.join();
  std::vector<int> times(kItems, 0);
  for (const std::vector<int>& items : popped) {
    for (int v : items) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, kItems);
      times[v] += 1;
    }
  }
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(times[i], 1) << "item " << i;
  EXPECT_EQ(q.size(), 0u);
}

// --- Workload parsing ---------------------------------------------------------

TEST(WorkloadParseTest, ParsesKindsAndKeys) {
  const auto parsed = ParseWorkload(
      "# a comment\n"
      "topk k=7 epsilon=0.5 r=slow\n"
      "\n"
      "skyline r=3\n"
      "skyband band=4\n"
      "range radius=0.25 deadline=500\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const std::vector<WorkloadItem>& items = *parsed;
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].kind, WorkloadItem::Kind::kTopK);
  EXPECT_EQ(items[0].k, 7u);
  EXPECT_DOUBLE_EQ(items[0].epsilon, 0.5);
  EXPECT_TRUE(items[0].ripple.is_slow());
  EXPECT_EQ(items[1].kind, WorkloadItem::Kind::kSkyline);
  EXPECT_EQ(items[1].ripple.hops(), 3);
  EXPECT_EQ(items[2].band, 4u);
  EXPECT_DOUBLE_EQ(items[3].radius, 0.25);
  EXPECT_DOUBLE_EQ(items[3].deadline, 500.0);
  EXPECT_EQ(items[0].label, "topk k=7 epsilon=0.5 r=slow");
}

TEST(WorkloadParseTest, CountExpandsIntoDistinctItems) {
  const auto parsed = ParseWorkload("topk k=3 count=5\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 5u);
  for (const WorkloadItem& item : *parsed) EXPECT_EQ(item.k, 3u);
}

TEST(WorkloadParseTest, ErrorsCarryLineNumbers) {
  const auto bad_kind = ParseWorkload("topk k=1\nfrobnicate\n");
  ASSERT_FALSE(bad_kind.ok());
  EXPECT_NE(bad_kind.status().message().find("line 2"), std::string::npos);

  const auto bad_value = ParseWorkload("topk k=zero\n");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_NE(bad_value.status().message().find("line 1"), std::string::npos);

  const auto bad_key = ParseWorkload("skyline knobs=11\n");
  ASSERT_FALSE(bad_key.ok());
  EXPECT_NE(bad_key.status().message().find("unknown key"),
            std::string::npos);

  EXPECT_FALSE(ParseWorkload("# only a comment\n").ok());
}

TEST(WorkloadParseTest, DefaultMixCoversEveryKind) {
  const std::vector<WorkloadItem> mix = DefaultWorkloadMix(16);
  ASSERT_EQ(mix.size(), 16u);
  size_t kinds[4] = {0, 0, 0, 0};
  for (const WorkloadItem& item : mix) {
    kinds[static_cast<int>(item.kind)] += 1;
  }
  for (size_t count : kinds) EXPECT_GT(count, 0u);
}

// --- Executor -----------------------------------------------------------------

struct Net {
  MidasOverlay overlay;
  TupleVec all;
};

Net MakeNet(size_t peers, size_t tuples, int dims, uint64_t seed) {
  MidasOptions opt;
  opt.dims = dims;
  opt.seed = seed;
  opt.split_rule = MidasSplitRule::kDataMedian;
  Net net{MidasOverlay(opt), {}};
  Rng rng(seed ^ 0xabc);
  net.all = data::MakeUniform(tuples, dims, &rng);
  for (const Tuple& t : net.all) net.overlay.InsertTuple(t);
  while (net.overlay.NumPeers() < peers) net.overlay.Join();
  return net;
}

std::vector<uint64_t> AnswerIds(const QueryOutcome& out) {
  std::vector<uint64_t> ids;
  ids.reserve(out.answer.size());
  for (const Tuple& t : out.answer) ids.push_back(t.id);
  return ids;
}

/// Per-peer visit counts: the merged profile's span column.
std::vector<uint64_t> Visits(const WorkloadResult& result) {
  std::vector<uint64_t> spans;
  spans.reserve(result.profile.peer_count());
  for (const obs::PeerLoad& load : result.profile.loads()) {
    spans.push_back(load.spans);
  }
  return spans;
}

WorkloadResult RunMix(const Net& net, int threads, uint64_t seed,
                      size_t queries, bool async = false,
                      bool collect_spans = false) {
  CompileOptions copts;
  copts.seed = seed;
  copts.async = async;
  CompiledWorkload compiled =
      CompileWorkload(net.overlay, DefaultWorkloadMix(queries), copts);
  ExecutorOptions opts;
  opts.threads = threads;
  opts.seed = seed;
  opts.collect_spans = collect_spans;
  Executor executor(opts);
  return executor.Run(compiled.jobs, net.overlay.NumPeers());
}

TEST(ExecutorTest, RunsEveryQueryOfTheMix) {
  const Net net = MakeNet(48, 3000, 2, 11);
  const WorkloadResult result = RunMix(net, /*threads=*/2, /*seed=*/5, 12);
  ASSERT_EQ(result.queries.size(), 12u);
  EXPECT_EQ(result.completed, 12u);
  EXPECT_EQ(result.shed, 0u);
  EXPECT_EQ(result.partial, 0u);
  EXPECT_TRUE(result.coverage.complete());
  EXPECT_GT(result.total_stats.peers_visited, 0u);
  EXPECT_GT(result.qps, 0.0);
  EXPECT_EQ(result.latency_ms.count(), 12u);
  for (const QueryOutcome& out : result.queries) {
    EXPECT_GE(out.worker, 0);
    EXPECT_LT(out.worker, 2);
    EXPECT_TRUE(out.complete);
    EXPECT_NE(out.initiator, kInvalidPeer);
  }
  EXPECT_NE(result.Summary().find("12 queries"), std::string::npos);
}

TEST(ExecutorTest, DeterministicAcrossRepeatedRuns) {
  const Net net = MakeNet(48, 3000, 2, 11);
  const WorkloadResult base = RunMix(net, /*threads=*/3, /*seed=*/9, 16);
  for (int run = 0; run < 2; ++run) {
    const WorkloadResult again = RunMix(net, /*threads=*/3, /*seed=*/9, 16);
    ASSERT_EQ(again.queries.size(), base.queries.size());
    EXPECT_EQ(again.total_stats.latency_hops, base.total_stats.latency_hops);
    EXPECT_EQ(again.total_stats.peers_visited, base.total_stats.peers_visited);
    EXPECT_EQ(again.total_stats.messages, base.total_stats.messages);
    EXPECT_EQ(again.total_stats.tuples_shipped,
              base.total_stats.tuples_shipped);
    EXPECT_EQ(Visits(again), Visits(base));
    for (size_t i = 0; i < base.queries.size(); ++i) {
      EXPECT_EQ(again.queries[i].initiator, base.queries[i].initiator);
      EXPECT_EQ(AnswerIds(again.queries[i]), AnswerIds(base.queries[i]))
          << "query " << i;
    }
  }
}

TEST(ExecutorTest, AnswersInvariantAcrossThreadCounts) {
  // Queries are materialized from per-item seeds, so pool size only moves
  // work between workers — answers, stats and initiators must not change.
  const Net net = MakeNet(48, 3000, 2, 11);
  const WorkloadResult one = RunMix(net, /*threads=*/1, /*seed=*/4, 12);
  const WorkloadResult four = RunMix(net, /*threads=*/4, /*seed=*/4, 12);
  ASSERT_EQ(one.queries.size(), four.queries.size());
  EXPECT_EQ(one.total_stats.messages, four.total_stats.messages);
  EXPECT_EQ(one.total_stats.peers_visited, four.total_stats.peers_visited);
  EXPECT_EQ(Visits(one), Visits(four));
  for (size_t i = 0; i < one.queries.size(); ++i) {
    EXPECT_EQ(one.queries[i].initiator, four.queries[i].initiator);
    EXPECT_EQ(AnswerIds(one.queries[i]), AnswerIds(four.queries[i]))
        << "query " << i;
  }
}

TEST(ExecutorTest, AsyncEngineMatchesRecursiveAnswers) {
  // Fault-free async execution keeps the engines' cross-validation
  // contract, so the same compiled workload answers identically.
  const Net net = MakeNet(32, 2000, 2, 3);
  const WorkloadResult sync = RunMix(net, 2, /*seed=*/6, 8, /*async=*/false);
  const WorkloadResult async = RunMix(net, 2, /*seed=*/6, 8, /*async=*/true);
  ASSERT_EQ(sync.queries.size(), async.queries.size());
  EXPECT_EQ(sync.total_stats.peers_visited, async.total_stats.peers_visited);
  for (size_t i = 0; i < sync.queries.size(); ++i) {
    EXPECT_EQ(AnswerIds(sync.queries[i]), AnswerIds(async.queries[i]))
        << "query " << i;
    EXPECT_GT(async.queries[i].completion_time, 0.0);
  }
}

TEST(ExecutorTest, FirstIndexBuildsAfterAnInsertBatchRunOnWorkers) {
  // A store builds its k-d index on the first read after a write. Here
  // those first reads come from two workers running skyline and skyband
  // leads at once, right after an InsertTuple batch with no warm-up —
  // the store-side band kernel reads the index. Under TSan
  // this checks their publish-once builds; answers must equal a
  // one-worker unbatched run over an identically written overlay.
  auto written_net = [] {
    Net net = MakeNet(48, 3000, 2, 17);
    Rng rng(99);
    TupleVec batch = data::MakeUniform(400, 2, &rng);
    for (Tuple& t : batch) {
      t.id += 1000000;
      net.overlay.InsertTuple(t);
    }
    return net;
  };
  std::vector<WorkloadItem> items;
  for (size_t band : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
    WorkloadItem item;
    item.kind = band == 1 ? WorkloadItem::Kind::kSkyline
                          : WorkloadItem::Kind::kSkyband;
    item.band = band;
    item.group = static_cast<int>(band);
    items.push_back(item);
    items.push_back(item);
  }
  CompileOptions copts;
  copts.seed = 21;

  const Net batched_net = written_net();
  ExecutorOptions opts;
  opts.threads = 2;
  Executor executor(opts);
  BatchOptions bopts;
  const WorkloadResult batched = RunBatchedWorkload(
      executor, batched_net.overlay, items, copts, bopts);

  const Net serial_net = written_net();
  ExecutorOptions serial_opts;
  serial_opts.threads = 1;
  Executor serial(serial_opts);
  CompiledWorkload compiled =
      CompileWorkload(serial_net.overlay, items, copts);
  const WorkloadResult want =
      serial.Run(compiled.jobs, serial_net.overlay.NumPeers());

  ASSERT_EQ(batched.queries.size(), items.size());
  ASSERT_EQ(want.queries.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_TRUE(batched.queries[i].complete) << "item " << i;
    EXPECT_FALSE(want.queries[i].answer.empty()) << "item " << i;
    EXPECT_EQ(AnswerIds(batched.queries[i]), AnswerIds(want.queries[i]))
        << "item " << i;
  }
}

TEST(ExecutorTest, TailWritesIntoIndexedStoresRunOnWorkers) {
  // Every store is indexed by a read first; then insert batches too small
  // to fold any store's write tail land in those indexes. Two workers run
  // skyline, skyband and top-k leads over the tails at once. Under TSan
  // this checks that tail reads write nothing; answers must equal a
  // one-worker run over an identically written overlay.
  auto written_net = [] {
    Net net = MakeNet(16, 2000, 2, 29);
    const LinearScorer scorer({-1.0, -1.0});
    for (const PeerId id : net.overlay.LivePeers()) {
      (void)net.overlay.GetPeer(id).store.CountTopKAbove(
          scorer, 1, -std::numeric_limits<double>::infinity());
    }
    Rng rng(101);
    for (int batch = 0; batch < 3; ++batch) {
      TupleVec rows = data::MakeUniform(40, 2, &rng);
      for (Tuple& t : rows) {
        t.id += 1000000 * static_cast<uint64_t>(batch + 1);
        net.overlay.InsertTuple(t);
      }
    }
    return net;
  };
  std::vector<WorkloadItem> items;
  for (const WorkloadItem::Kind kind :
       {WorkloadItem::Kind::kSkyline, WorkloadItem::Kind::kSkyband,
        WorkloadItem::Kind::kTopK}) {
    for (size_t depth : {size_t{2}, size_t{3}}) {
      WorkloadItem item;
      item.kind = kind;
      item.band = depth;
      item.k = 5 * depth;
      items.push_back(item);
      items.push_back(item);
    }
  }
  CompileOptions copts;
  copts.seed = 37;

  const Net net = written_net();
  size_t tailed = 0;
  for (const PeerId id : net.overlay.LivePeers()) {
    const LocalStore& store = net.overlay.GetPeer(id).store;
    EXPECT_LE(store.tail_size(), LocalStore::kIndexThreshold);
    if (store.tail_size() > 0) ++tailed;
  }
  ASSERT_GT(tailed, 0u) << "no store took a write into its tail";
  ExecutorOptions opts;
  opts.threads = 2;
  Executor executor(opts);
  CompiledWorkload compiled = CompileWorkload(net.overlay, items, copts);
  const WorkloadResult got =
      executor.Run(compiled.jobs, net.overlay.NumPeers());

  const Net serial_net = written_net();
  ExecutorOptions serial_opts;
  serial_opts.threads = 1;
  Executor serial(serial_opts);
  CompiledWorkload serial_compiled =
      CompileWorkload(serial_net.overlay, items, copts);
  const WorkloadResult want =
      serial.Run(serial_compiled.jobs, serial_net.overlay.NumPeers());

  ASSERT_EQ(got.queries.size(), items.size());
  ASSERT_EQ(want.queries.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_TRUE(got.queries[i].complete) << "item " << i;
    EXPECT_FALSE(want.queries[i].answer.empty()) << "item " << i;
    EXPECT_EQ(AnswerIds(got.queries[i]), AnswerIds(want.queries[i]))
        << "item " << i;
  }
}

TEST(ExecutorTest, AsyncLossyJobsOnTwoWorkersMatchOneWorker) {
  // Each worker thread keeps its own pool of async run scratch (sessions,
  // forwards, timers, datagram buffers). The benchmark's lossy top-k and
  // range mix runs on two workers twice, so the second pass reuses warm
  // pools; every job must still report exactly what a one-worker run
  // does. Under TSan this also checks that no pool is shared.
  const Net net = MakeNet(64, 3000, 2, 23);
  std::string text;
  for (int i = 0; i < 2; ++i) {
    text +=
        "topk k=10 r=fast\n"
        "topk k=20 r=2\n"
        "range radius=0.1 r=slow\n"
        "topk k=10 r=2\n"
        "topk k=20 r=slow\n"
        "range radius=0.1 r=fast\n"
        "topk k=10 r=slow\n"
        "topk k=20 r=fast\n"
        "range radius=0.1 r=2\n";
  }
  const auto items = ParseWorkload(text);
  ASSERT_TRUE(items.ok());
  CompileOptions copts;
  copts.seed = 31;
  copts.async = true;
  copts.fault.loss_rate = 0.02;
  copts.fault.dup_rate = 0.01;
  copts.retry.max_retries = 8;
  const CompiledWorkload compiled = CompileWorkload(net.overlay, *items, copts);
  const auto run = [&](int threads) {
    ExecutorOptions opts;
    opts.threads = threads;
    Executor executor(opts);
    return executor.Run(compiled.jobs, net.overlay.NumPeers());
  };
  const WorkloadResult want = run(1);
  uint64_t faults = 0;
  for (const QueryOutcome& out : want.queries) {
    faults += out.coverage.messages_lost + out.coverage.messages_duplicated;
  }
  EXPECT_GT(faults, 0u);  // the fault machinery did run
  for (int pass = 0; pass < 2; ++pass) {
    const WorkloadResult got = run(2);
    ASSERT_EQ(got.queries.size(), want.queries.size());
    for (size_t i = 0; i < want.queries.size(); ++i) {
      const QueryOutcome& a = got.queries[i];
      const QueryOutcome& b = want.queries[i];
      EXPECT_EQ(AnswerIds(a), AnswerIds(b)) << "pass " << pass << " job " << i;
      EXPECT_EQ(a.complete, b.complete) << "job " << i;
      EXPECT_EQ(a.completion_time, b.completion_time) << "job " << i;
      EXPECT_EQ(a.stats.latency_hops, b.stats.latency_hops) << "job " << i;
      EXPECT_EQ(a.stats.peers_visited, b.stats.peers_visited) << "job " << i;
      EXPECT_EQ(a.stats.messages, b.stats.messages) << "job " << i;
      EXPECT_EQ(a.stats.tuples_shipped, b.stats.tuples_shipped) << "job " << i;
      EXPECT_EQ(a.stats.bytes_on_wire, b.stats.bytes_on_wire) << "job " << i;
      const net::Coverage& ca = a.coverage;
      const net::Coverage& cb = b.coverage;
      EXPECT_EQ(ca.retries, cb.retries) << "job " << i;
      EXPECT_EQ(ca.timeouts, cb.timeouts) << "job " << i;
      EXPECT_EQ(ca.messages_lost, cb.messages_lost) << "job " << i;
      EXPECT_EQ(ca.messages_duplicated, cb.messages_duplicated) << "job " << i;
      EXPECT_EQ(ca.duplicates_suppressed, cb.duplicates_suppressed)
          << "job " << i;
      EXPECT_EQ(ca.acks, cb.acks) << "job " << i;
      EXPECT_EQ(ca.late_responses, cb.late_responses) << "job " << i;
      EXPECT_EQ(ca.crash_drops, cb.crash_drops) << "job " << i;
      EXPECT_EQ(ca.links_unresolved, cb.links_unresolved) << "job " << i;
      EXPECT_EQ(ca.answers_lost, cb.answers_lost) << "job " << i;
      EXPECT_EQ(ca.unreachable_peers, cb.unreachable_peers) << "job " << i;
      EXPECT_EQ(ca.crashed_peers, cb.crashed_peers) << "job " << i;
    }
  }
}

TEST(ExecutorTest, ProfilerAndLoadTableCrossCheck) {
  // Skyband/range jobs run the engine without a bootstrap driver, so the
  // engine's profiler sees every visited peer: the merged per-worker
  // profilers and the summed QueryStats must agree, on both engines.
  const Net net = MakeNet(32, 2000, 2, 3);
  const auto items = ParseWorkload("skyband band=2 count=4\nrange radius=0.3 count=4\n");
  ASSERT_TRUE(items.ok());
  for (const bool async : {false, true}) {
    CompileOptions copts;
    copts.seed = 13;
    copts.async = async;
    CompiledWorkload compiled = CompileWorkload(net.overlay, *items, copts);
    ExecutorOptions opts;
    opts.threads = 2;
    opts.seed = 13;
    Executor executor(opts);
    const WorkloadResult result =
        executor.Run(compiled.jobs, net.overlay.NumPeers());
    const obs::PeerLoad totals = result.profile.Totals();
    EXPECT_GT(totals.spans, 0u) << "async=" << async;
    EXPECT_EQ(totals.spans, result.total_stats.peers_visited)
        << "async=" << async;
    EXPECT_EQ(totals.messages_out, result.total_stats.messages)
        << "async=" << async;
    EXPECT_EQ(totals.tuples_out, result.total_stats.tuples_shipped)
        << "async=" << async;
    EXPECT_EQ(totals.bytes_out, result.total_stats.bytes_on_wire)
        << "async=" << async;
    EXPECT_EQ(totals.retransmissions, 0u) << "async=" << async;
    EXPECT_EQ(result.profile.peer_count(), net.overlay.NumPeers())
        << "async=" << async;
  }
}

TEST(ExecutorTest, DeadlineShedsQueuedQueries) {
  // One slow job blocks the single worker; everything queued behind it
  // carries a microscopic deadline and must be shed un-run.
  std::vector<Job> jobs;
  Job slow;
  slow.run = [](JobContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return JobResult{};
  };
  jobs.push_back(std::move(slow));
  for (int i = 0; i < 4; ++i) {
    Job doomed;
    doomed.deadline_ms = 0.01;
    doomed.run = [](JobContext&) { return JobResult{}; };
    jobs.push_back(std::move(doomed));
  }
  ExecutorOptions opts;
  opts.threads = 1;
  opts.queue_capacity = 16;
  Executor executor(opts);
  const WorkloadResult result = executor.Run(jobs, /*peer_universe=*/1);
  EXPECT_EQ(result.completed + result.shed, 5u);
  EXPECT_GE(result.shed, 4u);
  for (const QueryOutcome& out : result.queries) {
    if (out.shed) {
      EXPECT_TRUE(out.answer.empty());
      EXPECT_FALSE(out.complete);
    }
  }
  EXPECT_EQ(result.latency_ms.count(), result.completed);
}

TEST(ExecutorTest, BackpressureBlocksAdmissionInsteadOfDropping) {
  // queue_capacity 1 with a slow worker: the admission loop must stall on
  // Push, and still every job runs exactly once.
  std::atomic<int> ran{0};
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    Job job;
    job.run = [&ran](JobContext&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ran.fetch_add(1);
      return JobResult{};
    };
    jobs.push_back(std::move(job));
  }
  ExecutorOptions opts;
  opts.threads = 1;
  opts.queue_capacity = 1;
  Executor executor(opts);
  const WorkloadResult result = executor.Run(jobs, 1);
  EXPECT_EQ(ran.load(), 6);
  EXPECT_EQ(result.completed, 6u);
  EXPECT_EQ(result.shed, 0u);
}

TEST(ExecutorTest, IdleWorkerTakesNextJob) {
  // Job 0 blocks until the last of jobs 1..N has run. Under static
  // assignment (job i -> worker i mod 2) half of those jobs would queue
  // behind job 0 on its own worker and never run; a shared queue lets the
  // other worker take all of them. The wait is bounded so a regression
  // fails instead of hanging.
  constexpr int kOthers = 8;
  std::mutex mu;
  std::condition_variable cv;
  int remaining = kOthers;
  bool released = false;
  std::vector<Job> jobs;
  Job first;
  first.run = [&](JobContext&) {
    std::unique_lock<std::mutex> lock(mu);
    released = cv.wait_for(lock, std::chrono::seconds(10),
                           [&] { return remaining == 0; });
    return JobResult{};
  };
  jobs.push_back(std::move(first));
  for (int i = 0; i < kOthers; ++i) {
    Job job;
    job.run = [&](JobContext&) {
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_all();
      return JobResult{};
    };
    jobs.push_back(std::move(job));
  }
  ExecutorOptions opts;
  opts.threads = 2;
  Executor executor(opts);
  const WorkloadResult result = executor.Run(jobs, 1);
  EXPECT_TRUE(released) << "job 0 timed out: its worker's backlog never ran";
  EXPECT_EQ(result.completed, jobs.size());
  for (size_t i = 1; i < result.queries.size(); ++i) {
    EXPECT_NE(result.queries[i].worker, result.queries[0].worker)
        << "job " << i << " ran on the worker blocked by job 0";
  }
}

TEST(ExecutorTest, JobRngIsPerJobAcrossThreadCounts) {
  // ctx.rng is seeded from (seed, job index), so a job draws the same
  // values whichever worker runs it and however many workers there are.
  constexpr size_t kJobs = 12;
  auto draws_for = [](int threads) {
    std::vector<std::vector<uint64_t>> draws(kJobs);
    std::vector<Job> jobs;
    for (size_t i = 0; i < kJobs; ++i) {
      Job job;
      job.run = [&draws, i](JobContext& ctx) {
        for (size_t d = 0; d <= i % 3; ++d) {
          draws[i].push_back(ctx.rng->NextU64());
        }
        return JobResult{};
      };
      jobs.push_back(std::move(job));
    }
    ExecutorOptions opts;
    opts.threads = threads;
    opts.seed = 21;
    Executor executor(opts);
    executor.Run(jobs, 1);
    return draws;
  };
  const std::vector<std::vector<uint64_t>> one = draws_for(1);
  EXPECT_EQ(draws_for(3), one);
  EXPECT_EQ(draws_for(3), one);
  EXPECT_EQ(draws_for(1), one);
  EXPECT_NE(one[0], one[3]) << "jobs must not share a stream";
}

TEST(ExecutorTest, AdmissionSpansCoverExecutedQueries) {
  const Net net = MakeNet(32, 2000, 2, 3);
  CompiledWorkload compiled =
      CompileWorkload(net.overlay, DefaultWorkloadMix(8), {.seed = 2});
  ExecutorOptions opts;
  opts.threads = 2;
  opts.seed = 2;
  opts.collect_spans = true;
  Executor executor(opts);
  const WorkloadResult result =
      executor.Run(compiled.jobs, net.overlay.NumPeers());
  size_t spans = 0;
  for (const obs::Tracer& tracer : executor.worker_tracers()) {
    for (const obs::Span& span : tracer.spans()) {
      EXPECT_EQ(span.kind, obs::SpanKind::kAdmission);
      EXPECT_GE(span.end, span.start);
      ++spans;
    }
  }
  EXPECT_EQ(spans, result.completed);
}

TEST(ExecutorTest, JournalRecordsSampledAdmissionSpansAndFrames) {
  // Head sampling gates the shared journal: at trace_sample=1 every
  // query's admission span and its async frames are journaled under its
  // trace id; at trace_sample=0 nothing is.
  const Net net = MakeNet(32, 2000, 2, 3);
  for (const double sample : {1.0, 0.0}) {
    CompiledWorkload compiled = CompileWorkload(
        net.overlay, DefaultWorkloadMix(8),
        {.seed = 2, .async = true, .trace_sample = sample});
    obs::JournalSet journal;
    ExecutorOptions opts;
    opts.threads = 2;
    opts.seed = 2;
    opts.collect_spans = true;
    opts.journal = &journal;
    Executor executor(opts);
    const WorkloadResult result =
        executor.Run(compiled.jobs, net.overlay.NumPeers());
    ASSERT_EQ(result.completed, 8u);
    size_t begins = 0;
    size_t ends = 0;
    size_t frames = 0;
    for (uint32_t peer : journal.Peers()) {
      for (const obs::JournalEvent& e : journal.Snapshot(peer).events) {
        EXPECT_NE(e.trace_id, 0u);
        const bool span = e.kind == obs::JournalEventKind::kSpanBegin ||
                          e.kind == obs::JournalEventKind::kSpanEnd;
        if (span) {
          // Engines get no tracer from the executor: only admission
          // envelopes are spans.
          EXPECT_EQ(e.span_kind,
                    static_cast<uint8_t>(obs::SpanKind::kAdmission));
        }
        begins += e.kind == obs::JournalEventKind::kSpanBegin;
        ends += e.kind == obs::JournalEventKind::kSpanEnd;
        frames += e.kind == obs::JournalEventKind::kFrameSend ||
                  e.kind == obs::JournalEventKind::kFrameRecv;
      }
    }
    if (sample == 0.0) {
      EXPECT_EQ(journal.TotalEvents(), 0u);
      continue;
    }
    EXPECT_EQ(begins, result.completed);
    EXPECT_EQ(ends, result.completed);
    EXPECT_GT(frames, 0u);
  }
}

TEST(ExecutorTest, QpsPacingStretchesTheRun) {
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) {
    Job job;
    job.run = [](JobContext&) { return JobResult{}; };
    jobs.push_back(std::move(job));
  }
  ExecutorOptions opts;
  opts.threads = 2;
  opts.qps_target = 100.0;  // 10ms spacing -> >= 40ms for 5 queries
  Executor executor(opts);
  const WorkloadResult result = executor.Run(jobs, 1);
  EXPECT_EQ(result.completed, 5u);
  EXPECT_GE(result.wall_s, 0.035);
}

TEST(ExecutorTest, GlobalObsStaysLiveInsideTheParallelSection) {
  obs::Registry::EnableGlobal(true);
  obs::Profiler::EnableGlobal(true);
  const uint64_t completed_before =
      obs::Registry::Global().GetCounter("exec.completed").value();
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    Job job;
    job.run = [](JobContext&) {
      // The process-global hooks stay enabled inside the parallel section
      // (metrics are atomic / internally locked now — there is no freeze):
      // worker-side engine runs may record global metrics and route hops.
      EXPECT_TRUE(obs::Profiler::GlobalEnabled());
      EXPECT_TRUE(obs::Registry::GlobalEnabled());
      obs::Registry::Global().GetCounter("exec_test.worker_side").Inc();
      obs::RecordRouteStep(0, 1);
      return JobResult{};
    };
    jobs.push_back(std::move(job));
  }
  ExecutorOptions options;
  options.threads = 4;
  Executor executor(options);
  executor.Run(jobs, 2);
  EXPECT_TRUE(obs::Registry::GlobalEnabled());
  EXPECT_TRUE(obs::Profiler::GlobalEnabled());
  obs::Registry::EnableGlobal(false);
  obs::Profiler::EnableGlobal(false);
  // Worker-side global recording landed instead of being dropped.
  EXPECT_EQ(
      obs::Registry::Global().GetCounter("exec_test.worker_side").value(), 8u);
  EXPECT_GE(obs::Profiler::Global().Totals().route_hops, 8u);
  EXPECT_EQ(obs::Registry::Global().GetCounter("exec.completed").value(),
            completed_before + 8);
}

}  // namespace
}  // namespace ripple::exec
