#include "oracle/oracle.h"

#include <algorithm>

#include "geom/dominance.h"

namespace ripple::oracle {

TupleVec Skyband(const TupleVec& tuples, size_t k) {
  TupleVec all = tuples;
  std::sort(all.begin(), all.end(), TupleIdLess());
  all.erase(std::unique(all.begin(), all.end(),
                        [](const Tuple& a, const Tuple& b) {
                          return a.id == b.id;
                        }),
            all.end());
  TupleVec band;
  for (const Tuple& t : all) {
    size_t dominators = 0;
    for (const Tuple& s : all) dominators += Dominates(s.key, t.key);
    if (dominators < k) band.push_back(t);
  }
  return band;
}

TupleVec Skyline(const TupleVec& tuples) { return Skyband(tuples, 1); }

TupleVec MergeBands(const TupleVec& a, const TupleVec& b, size_t k) {
  TupleVec all = a;
  all.insert(all.end(), b.begin(), b.end());
  return Skyband(all, k);
}

TupleVec TopK(TupleVec tuples,
              const std::function<double(const Point&)>& score, size_t k) {
  std::sort(tuples.begin(), tuples.end(),
            [&](const Tuple& a, const Tuple& b) {
              const double sa = score(a.key), sb = score(b.key);
              return sa != sb ? sa > sb : a.id < b.id;
            });
  tuples.resize(std::min(k, tuples.size()));
  return tuples;
}

}  // namespace ripple::oracle
