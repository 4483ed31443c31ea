#include "exec/batch.h"

namespace ripple::exec {

WorkloadResult ExpandBatchedResult(BatchPlan& plan,
                                   const std::vector<size_t>& job_items,
                                   WorkloadResult lead) {
  // Map each leader item index to its outcome in the leader-only run.
  std::unordered_map<size_t, QueryOutcome*> by_item;
  by_item.reserve(job_items.size());
  for (size_t j = 0; j < job_items.size() && j < lead.queries.size(); ++j) {
    by_item.emplace(job_items[j], &lead.queries[j]);
  }

  WorkloadResult full = std::move(lead);
  std::vector<QueryOutcome> expanded(plan.slots.size());
  full.total_stats = QueryStats{};
  full.completed = 0;
  full.shed = 0;
  full.partial = 0;
  for (size_t i = 0; i < plan.slots.size(); ++i) {
    BatchSlot& slot = plan.slots[i];
    QueryOutcome& out = expanded[i];
    switch (slot.role) {
      case BatchSlot::Role::kLead: {
        auto it = by_item.find(i);
        if (it != by_item.end()) out = std::move(*it->second);
        out.index = i;
        break;
      }
      case BatchSlot::Role::kFollow: {
        // The follower is the same query instance as its leader: same
        // answer, byte for byte — but it never touched the network, so
        // it carries zero cost and no trace of its own. PlanWorkload
        // makes an item's first occurrence the leader, so the leader's
        // outcome is already in `expanded`.
        if (slot.leader < i) {
          const QueryOutcome& led = expanded[slot.leader];
          out.answer = led.answer;
          out.complete = led.complete;
          out.shed = led.shed;
          out.initiator = led.initiator;
        }
        out.index = i;
        out.worker = -1;
        break;
      }
      case BatchSlot::Role::kHit: {
        out.index = i;
        out.worker = -1;
        out.answer = std::move(slot.cached_answer);
        out.complete = true;
        break;
      }
    }
    if (out.shed) {
      full.shed += 1;
    } else {
      full.completed += 1;
      if (!out.complete) full.partial += 1;
    }
    full.total_stats += out.stats;
  }
  full.queries = std::move(expanded);
  // Throughput counts every answered query — followers and hits complete
  // without running, which is the point of the layer. Wall-clock
  // histograms, profile and coverage keep describing the leader jobs that
  // actually executed.
  if (full.wall_s > 0.0) {
    full.qps = static_cast<double>(full.completed) / full.wall_s;
  }
  return full;
}

}  // namespace ripple::exec
