// Heap allocations per query on the AsyncEngine's message path, counted
// by a global operator new. The workload is the benchmark's lossy top-k
// and range mix (fast, r=2 and slow; 2% loss, 1% duplication, 8 retries)
// on a small MIDAS overlay, with the global registry recording as it does
// under the benchmark, and the bound is the measured count plus 10%, so a
// change that puts allocations back on the per-message path fails here
// before it shows as lost throughput.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "exec/compile.h"
#include "exec/workload.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "overlay/midas/midas.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

// The replacements pair malloc with free; GCC cannot see that through
// inlining and warns about a mismatch.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ripple {
namespace {

/// Allocations per query measured for this workload when the bound was
/// set (295.6 before the message path recycled its buffers, 194.2 before
/// top-k states were counted off the store instead of materialized, 186.1
/// with the registry recording before sessions, forwards and run scratch
/// were pooled, 15.0 before local answers reserved their size), and the
/// bound: the measured count plus 10%.
constexpr double kMeasuredPerQuery = 14.5;
constexpr double kBoundPerQuery = 16.0;

constexpr const char* kPeriod =
    "topk k=10 r=fast\n"
    "topk k=20 r=2\n"
    "range radius=0.1 r=slow\n"
    "topk k=10 r=2\n"
    "topk k=20 r=slow\n"
    "range radius=0.1 r=fast\n"
    "topk k=10 r=slow\n"
    "topk k=20 r=fast\n"
    "range radius=0.1 r=2\n";

TEST(AllocBudgetTest, LossyTopKAndRangeStayWithinBudget) {
#ifdef RIPPLE_SANITIZED_BUILD
  GTEST_SKIP() << "sanitizers allocate on their own behalf";
#endif
  MidasOptions opt;
  opt.dims = 4;
  opt.seed = 11;
  opt.split_rule = MidasSplitRule::kDataMedian;
  MidasOverlay overlay(opt);
  Rng rng(12);
  for (const Tuple& t : data::MakeUniform(8000, 4, &rng)) {
    overlay.InsertTuple(t);
  }
  while (overlay.NumPeers() < 1024) overlay.Join();

  std::string text;
  for (int i = 0; i < 4; ++i) text += kPeriod;
  const auto items = exec::ParseWorkload(text);
  ASSERT_TRUE(items.ok());
  exec::CompileOptions copts;
  copts.seed = 13;
  copts.async = true;
  copts.fault.loss_rate = 0.02;
  copts.fault.dup_rate = 0.01;
  copts.retry.max_retries = 8;
  const exec::CompiledWorkload compiled =
      exec::CompileWorkload(overlay, *items, copts);

  // One unmeasured pass first: the stores build their indexes lazily, on
  // first use, and that is set-up, not per-query cost.
  // The registry records as it does under the benchmark, so its flushes
  // are counted too.
  obs::Registry::EnableGlobal(true);
  exec::JobContext ctx;
  for (const exec::Job& job : compiled.jobs) job.run(ctx);

  uint64_t messages = 0;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const exec::Job& job : compiled.jobs) {
    const exec::JobResult r = job.run(ctx);
    messages += r.stats.messages;
  }
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  const double per_query = static_cast<double>(allocations) /
                           static_cast<double>(compiled.jobs.size());
  std::printf("allocations per query: %.1f over %zu queries (%.1f messages "
              "per query)\n",
              per_query, compiled.jobs.size(),
              static_cast<double>(messages) /
                  static_cast<double>(compiled.jobs.size()));
  obs::Registry::EnableGlobal(false);
  EXPECT_LE(per_query, kBoundPerQuery)
      << "measured " << kMeasuredPerQuery << " when the bound was set";
}

}  // namespace
}  // namespace ripple
