#ifndef RIPPLE_EXEC_BATCH_H_
#define RIPPLE_EXEC_BATCH_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/adaptive.h"
#include "cache/normalize.h"
#include "cache/query_cache.h"
#include "exec/compile.h"
#include "exec/executor.h"
#include "exec/workload.h"

namespace ripple::exec {

/// Batched execution over the initiator-side cache (docs/CACHING.md).
///
/// All cache consultation happens at PLAN time — sequentially, in item
/// order, before any job reaches a worker — and all cache absorption
/// happens POST-run, again in item order. Workers never touch the cache
/// or the controller, which is what keeps hit patterns, resolved `auto`
/// ripple parameters and therefore every deterministic field of the
/// result byte-identical across executor thread counts.
///
/// Soundness: answers are only reused for EXACT key matches (normalized
/// query identity, cache/normalize.h), only complete fault-free answers
/// are inserted, and the whole layer must be kept off under fault
/// injection — a cached answer would mask the degradation the faults are
/// there to produce.
struct BatchOptions {
  /// Answer/bound reuse; nullptr = no cache (batching may still merge).
  cache::QueryCache* cache = nullptr;
  /// Resolves WorkloadItem r=auto; nullptr = auto degrades to the
  /// controller-less default (fast).
  cache::AdaptiveController* controller = nullptr;
  /// Merge duplicate in-flight items (same normalized key) into one
  /// leader job whose answer the followers copy.
  bool merge_duplicates = true;
};

/// One workload item's disposition.
struct BatchSlot {
  enum class Role {
    kLead,    // runs as an executor job
    kFollow,  // copies the leader's answer; never runs
    kHit,     // answered straight from the cache; never runs
  };
  Role role = Role::kLead;
  /// Item index of the leader this slot follows (kFollow only).
  size_t leader = 0;
  /// Follower count (kLead only) — annotated onto the job label/span.
  size_t followers_of = 0;
  /// Normalized answer key; empty = uncacheable, always leads alone.
  std::string key;
  /// kHit: the cached answer and the cold cost it avoided.
  /// ExpandBatchedResult moves the answer out into the hit's outcome, so
  /// after a run it is empty; the cache keeps its own copy.
  TupleVec cached_answer;
  QueryStats saved_stats;
  /// Pre-hop pruning seed from the bound index (top-k leads only).
  bool has_seed = false;
  TopKState seed;
};

struct BatchPlan {
  /// One slot per workload item, in item order.
  std::vector<BatchSlot> slots;
  /// The items with every r=auto resolved to a concrete parameter.
  std::vector<WorkloadItem> items;
  size_t leads = 0;
  size_t follows = 0;
  size_t hits = 0;
};

/// A compiled plan: only leader jobs, plus the map back to item indices.
struct BatchedWorkload {
  CompiledWorkload compiled;
  /// compiled.jobs[j] executes item job_items[j].
  std::vector<size_t> job_items;
};

/// Rebuilds the full per-item WorkloadResult from the leader-only run:
/// leads keep their outcomes (moved, re-indexed), follows copy their
/// leader's answer with zero network cost, hits take the cached answer
/// with zero cost — moved out of the plan's slot, so the copy made at
/// plan time is the only one. total_stats / completed / shed / partial
/// are re-aggregated over all items; wall-clock histograms and profile
/// keep describing the jobs that actually ran.
WorkloadResult ExpandBatchedResult(BatchPlan& plan,
                                   const std::vector<size_t>& job_items,
                                   WorkloadResult lead);

namespace internal {

template <typename Q>
std::string AnswerKeyFor(const Q& query) {
  if constexpr (std::is_same_v<Q, TopKQuery>) {
    return cache::TopKAnswerKey(query);
  } else if constexpr (std::is_same_v<Q, SkylineQuery>) {
    return cache::SkylineAnswerKey(query);
  } else if constexpr (std::is_same_v<Q, SkybandQuery>) {
    return cache::SkybandAnswerKey(query);
  } else {
    static_assert(std::is_same_v<Q, RangeQuery>);
    return cache::RangeAnswerKey(query);
  }
}

}  // namespace internal

/// Plans the workload: resolves every r=auto through the controller (in
/// item order, before anything runs), keys every instance, consults the
/// cache for exact hits and top-k bound seeds, and groups duplicate
/// in-flight keys behind one leader.
template <typename Overlay>
BatchPlan PlanWorkload(const Overlay& overlay,
                       std::vector<WorkloadItem> items,
                       const CompileOptions& opts, const BatchOptions& b) {
  BatchPlan plan;
  for (WorkloadItem& item : items) {
    if (item.ripple.is_auto()) {
      item.ripple = b.controller != nullptr ? b.controller->Choose()
                                            : RippleParam::Fast();
    }
  }
  plan.slots.resize(items.size());
  std::unordered_map<std::string, size_t> first_of;  // key -> leader item
  std::vector<std::unique_ptr<Scorer>> scorers;
  ForEachWorkloadInstance(
      overlay, items, opts.seed, &scorers,
      [&](size_t i, const WorkloadItem&, PeerId, auto query) {
        using Q = std::decay_t<decltype(query)>;
        BatchSlot& slot = plan.slots[i];
        slot.key = internal::AnswerKeyFor<Q>(query);
        if (slot.key.empty()) return;  // uncacheable: leads alone
        if (b.cache != nullptr) {
          if (const cache::QueryCache::Entry* e = b.cache->Lookup(slot.key);
              e != nullptr) {
            slot.role = BatchSlot::Role::kHit;
            slot.cached_answer = e->answer;
            slot.saved_stats = e->cold_stats;
            return;
          }
        }
        if (b.merge_duplicates) {
          auto [it, inserted] = first_of.emplace(slot.key, i);
          if (!inserted) {
            slot.role = BatchSlot::Role::kFollow;
            slot.leader = it->second;
            plan.slots[it->second].followers_of += 1;
            return;
          }
        }
        if constexpr (std::is_same_v<Q, TopKQuery>) {
          // A miss may still prune from hop zero: reuse the strongest
          // threshold claim known for this scorer. Only seeds witnessing
          // >= k tuples apply — SeededTopK cannot soundly fold a partial
          // cached seed into its walk (overlapping sets double-count).
          if (b.cache != nullptr && query.k > 0) {
            double scale = 1.0;
            const std::string bkey = cache::TopKBoundKey(query, &scale);
            if (const cache::QueryCache::Bound* bound =
                    b.cache->LookupBound(bkey);
                bound != nullptr && bound->m >= query.k) {
              slot.has_seed = true;
              slot.seed.m = bound->m;
              slot.seed.tau = cache::LoosenBound(bound->tau_norm * scale);
            }
          }
        }
      });
  for (const BatchSlot& slot : plan.slots) {
    switch (slot.role) {
      case BatchSlot::Role::kLead:
        plan.leads += 1;
        break;
      case BatchSlot::Role::kFollow:
        plan.follows += 1;
        break;
      case BatchSlot::Role::kHit:
        plan.hits += 1;
        break;
    }
  }
  plan.items = std::move(items);
  return plan;
}

/// Compiles ONLY the plan's leader items into executor jobs, preserving
/// each item's original index (so per-item seeds, fault schedules and
/// trace ids match an unbatched compile of the same workload exactly).
/// Leader labels gain a "[batch+N]"/"[seeded]" suffix, which is what the
/// executor's admission spans record — the span annotation for batching.
template <typename Overlay>
BatchedWorkload CompileBatchedWorkload(const Overlay& overlay,
                                       const BatchPlan& plan,
                                       const CompileOptions& opts) {
  BatchedWorkload out;
  out.compiled.jobs.reserve(plan.leads);
  ForEachWorkloadInstance(
      overlay, plan.items, opts.seed, &out.compiled.scorers,
      [&](size_t i, const WorkloadItem& item, PeerId initiator, auto query) {
        const BatchSlot& slot = plan.slots[i];
        if (slot.role != BatchSlot::Role::kLead) return;
        WorkloadItem labeled = item;
        if (slot.followers_of > 0) {
          labeled.label +=
              " [batch+" + std::to_string(slot.followers_of) + "]";
        }
        std::optional<TopKState> seed;
        if (slot.has_seed) {
          labeled.label += " [seeded]";
          seed = slot.seed;
        }
        out.compiled.jobs.push_back(internal::MakeQueryJob(
            overlay, std::move(query), labeled, opts, i, initiator, seed));
        out.job_items.push_back(i);
      });
  return out;
}

/// Post-run absorption, in item order: ticks the cache's logical clock,
/// inserts every complete leader answer (plus the top-k bound it
/// witnesses), and feeds the controller's decaying window. Must run on
/// the admission thread after the executor joins.
template <typename Overlay>
void AbsorbBatchedResults(const Overlay& overlay, const BatchPlan& plan,
                          const CompileOptions& opts,
                          const WorkloadResult& result,
                          const BatchOptions& b) {
  std::vector<std::unique_ptr<Scorer>> scorers;
  ForEachWorkloadInstance(
      overlay, plan.items, opts.seed, &scorers,
      [&](size_t i, const WorkloadItem&, PeerId, auto query) {
        using Q = std::decay_t<decltype(query)>;
        const BatchSlot& slot = plan.slots[i];
        const QueryOutcome& q = result.queries[i];
        if (b.cache != nullptr) b.cache->Tick();
        if (slot.role != BatchSlot::Role::kLead) return;
        if (b.controller != nullptr && !q.shed) {
          b.controller->Observe(q.stats);
        }
        if (b.cache == nullptr || slot.key.empty() || q.shed || !q.complete) {
          return;
        }
        b.cache->Insert(slot.key, q.answer, q.stats);
        if constexpr (std::is_same_v<Q, TopKQuery>) {
          if (query.k > 0 && q.answer.size() >= query.k) {
            double scale = 1.0;
            const std::string bkey = cache::TopKBoundKey(query, &scale);
            double tau = std::numeric_limits<double>::infinity();
            for (const Tuple& t : q.answer) {
              tau = std::min(tau, query.scorer->Score(t.key));
            }
            if (std::isfinite(tau)) {
              b.cache->InsertBound(bkey, q.answer.size(), tau / scale);
            }
          }
        }
      });
}

/// The whole batched pipeline: plan -> compile leaders -> run -> expand
/// -> absorb. Drop-in replacement for CompileWorkload + Executor::Run
/// when a cache/controller is in play.
template <typename Overlay>
WorkloadResult RunBatchedWorkload(Executor& executor, const Overlay& overlay,
                                  std::vector<WorkloadItem> items,
                                  const CompileOptions& copts,
                                  const BatchOptions& bopts,
                                  BatchPlan* plan_out = nullptr) {
  BatchPlan plan = PlanWorkload(overlay, std::move(items), copts, bopts);
  BatchedWorkload bw = CompileBatchedWorkload(overlay, plan, copts);
  WorkloadResult lead = executor.Run(bw.compiled.jobs, overlay.NumPeers());
  WorkloadResult full =
      ExpandBatchedResult(plan, bw.job_items, std::move(lead));
  AbsorbBatchedResults(overlay, plan, copts, full, bopts);
  if (plan_out != nullptr) *plan_out = std::move(plan);
  return full;
}

}  // namespace ripple::exec

#endif  // RIPPLE_EXEC_BATCH_H_
