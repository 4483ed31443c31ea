#include "queries/skyline.h"

#include <algorithm>

#include "common/arena.h"

namespace ripple {

TupleVec StoredTuples(const LocalStore& store, const TupleVec& by_id) {
  if (by_id.empty()) return {};
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  uint8_t* held = arena.AllocateArray<uint8_t>(by_id.size());
  std::fill(held, held + by_id.size(), uint8_t{0});
  for (uint64_t id : store.flat().ids()) {
    const auto it = std::lower_bound(
        by_id.begin(), by_id.end(), id,
        [](const Tuple& t, uint64_t v) { return t.id < v; });
    if (it != by_id.end() && it->id == id) held[it - by_id.begin()] = 1;
  }
  TupleVec out;
  for (size_t i = 0; i < by_id.size(); ++i) {
    if (held[i] != 0) out.push_back(by_id[i]);
  }
  return out;
}

void SkylinePolicy::MergeAnswer(Answer* acc, Answer&& local,
                                const Query&) const {
  *acc = MergeBands(std::move(*acc), local, 1);
}

void SkylinePolicy::FinalizeAnswer(Answer* acc, const Query&) const {
  std::sort(acc->begin(), acc->end(), TupleIdLess());
}

}  // namespace ripple
