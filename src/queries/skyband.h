#ifndef RIPPLE_QUERIES_SKYBAND_H_
#define RIPPLE_QUERIES_SKYBAND_H_

#include <vector>

#include "queries/skyline.h"

namespace ripple {

/// A k-skyband query: all tuples dominated by fewer than `band` others
/// (per peer, ComputeKSkyband in store/local_algos.h).
struct SkybandQuery {
  size_t band = 2;
  Norm norm = Norm::kL2;

  /// Prioritization aims at the domain's origin.
  Point Origin(int dims) const { return Point(dims); }
  size_t Band() const { return band; }
  const Rect* Constraint() const { return nullptr; }
};

/// RIPPLE policy for distributed k-skyband retrieval — a generalization of
/// the Section 5 skyline policy: a region is prunable only when at least
/// `band` state tuples dominate all of it, because every tuple inside
/// would then have >= band dominators. Its state holds the tuples that,
/// as far as the query has seen, are dominated by fewer than `band`
/// others. Counting within a partial set can only undercount dominators,
/// so the state is a superset of the true band restricted to seen tuples
/// — pruning stays sound.
class SkybandPolicy : public BandPolicy<SkybandQuery, 64> {
 public:
  template <typename Area>
  bool IsLinkRelevant(const Query& q, const GlobalState& g,
                      const Area& area) const {
    const TupleVec& candidates =
        g.dominators.empty() ? g.tuples : g.dominators;
    bool prunable = true;
    ForEachRect(area, [&](const Rect& r) {
      size_t count = 0;
      for (const Tuple& s : candidates) {
        if (DominatesRect(s.key, r) && ++count >= q.band) break;
      }
      if (count < q.band) prunable = false;
    });
    return !prunable;
  }

  /// Appends: the answers are counted once, in FinalizeAnswer. Folding
  /// each of the thousands of per-peer answers into a running band
  /// (MergeBands) would count the band against every one of them.
  void MergeAnswer(Answer* acc, Answer&& local, const Query& q) const;
  /// Exact extraction: the k-skyband of everything collected, in one
  /// ComputeKSkyband pass. Correct because any tuple with >= band global
  /// dominators has >= band dominators inside the band itself (dominators
  /// of dominators also dominate, so dominator counts are
  /// self-contained), and the collected set is a superset of the band.
  void FinalizeAnswer(Answer* acc, const Query& q) const;

  // Query codec: [varint band][norm].
  void EncodeQuery(const Query& q, wire::Buffer* buf) const {
    buf->PutVarint(q.band);
    EncodeNorm(q.norm, buf);
  }
  bool DecodeQuery(wire::Reader* r, Query* out) const {
    out->band = static_cast<size_t>(r->Varint());
    return r->ok() && DecodeNorm(r, &out->norm);
  }
};

static_assert(QueryPolicy<SkybandPolicy, Rect>);

}  // namespace ripple

#endif  // RIPPLE_QUERIES_SKYBAND_H_
