#include "queries/skyband.h"

#include <iterator>

namespace ripple {

void SkybandPolicy::MergeAnswer(Answer* acc, Answer&& local,
                                const Query&) const {
  acc->insert(acc->end(), std::make_move_iterator(local.begin()),
              std::make_move_iterator(local.end()));
}

void SkybandPolicy::FinalizeAnswer(Answer* acc, const Query& q) const {
  *acc = ComputeKSkyband(std::move(*acc), q.band);
}

}  // namespace ripple
