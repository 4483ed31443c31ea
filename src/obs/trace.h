#ifndef RIPPLE_OBS_TRACE_H_
#define RIPPLE_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ripple::obs {

/// Sentinel parent for root spans.
inline constexpr uint32_t kNoSpan = 0xffffffffu;

/// What a span represents within one query execution.
enum class SpanKind : uint8_t {
  kFast,   // fast-phase peer visit (Algorithm 1 / Alg. 3 second loop)
  kSlow,   // slow-phase peer visit (Algorithm 2 / Alg. 3 first loop)
  kRoute,  // a forwarding hop of an overlay point-routing (bootstrap)
  kWalk,   // a seed-walk visit of the top-k driver's bootstrap
  kAdmission,  // executor admission-to-completion envelope of one query
};

const char* SpanKindName(SpanKind kind);

class JournalSet;  // obs/journal.h

/// One node of a query's span tree: a single peer handling the query.
/// Times are logical — forwarding hops for the recursive engine (one hop
/// = one time unit, exactly the Lemma 1-3 clock) and simulator time for
/// the async engine.
struct Span {
  uint32_t id = kNoSpan;
  uint32_t parent = kNoSpan;
  uint32_t peer = 0;
  SpanKind kind = SpanKind::kFast;
  /// Remaining ripple budget when the peer was visited (engine spans).
  int r = 0;
  /// Distance from the span-tree root.
  int depth = 0;
  double start = 0.0;
  double end = 0.0;
  /// Tuples in the global state this peer received with the query.
  uint64_t tuples_in = 0;
  /// Links whose area intersected but that the policy pruned (f+ checks).
  uint64_t links_pruned = 0;
  /// Links the query was forwarded over.
  uint64_t links_forwarded = 0;
  /// Child local states merged at this peer (slow phase only).
  uint64_t states_merged = 0;
  /// Tuples in the local state this peer reported to its ancestor.
  uint64_t state_tuples = 0;
  /// Qualifying tuples shipped to the initiator from this peer.
  uint64_t answer_tuples = 0;
  /// Retransmissions this peer issued for its pending forwards (fault
  /// layer; zero on a perfect network).
  uint64_t retries = 0;
  /// Timeouts that fired on this peer's pending forwards (fault layer).
  uint64_t timeouts = 0;
};

/// Records the span tree(s) of one or more query executions. Not
/// thread-safe; one tracer per query stream. The engines reach it through
/// their obs::Sink and skip all recording when it is null — the disabled
/// path costs one pointer test per peer visit.
class Tracer {
 public:
  /// Opens a span; `start` is in the caller's clock plus time_offset().
  uint32_t StartSpan(uint32_t peer, uint32_t parent, SpanKind kind, int r,
                     double start);
  /// Closes a span. `end` gets the same offset treatment as `start`.
  void EndSpan(uint32_t id, double end);

  /// Mutable access for filling the per-span counters mid-flight.
  Span& span(uint32_t id) { return spans_[id]; }
  const std::vector<Span>& spans() const { return spans_; }
  size_t span_count() const { return spans_.size(); }

  void Clear() { spans_.clear(); }

  /// Added to every start/end passed in. Lets a driver splice phases that
  /// each count time from zero (bootstrap routing, then the engine run)
  /// into one sequential timeline.
  double time_offset() const { return time_offset_; }
  void set_time_offset(double offset) { time_offset_ = offset; }

  /// Ids of root spans (parent == kNoSpan), in recording order.
  std::vector<uint32_t> Roots() const;
  /// Ids of `id`'s children, in recording order.
  std::vector<uint32_t> ChildrenOf(uint32_t id) const;

  /// Indented ASCII rendering of the span forest, for logs and debugging.
  std::string ToAscii() const;

  /// The trace identity stamped on mirrored journal events. Set it before
  /// recording any span of the query (the seeded drivers record bootstrap
  /// spans before the engine runs).
  void set_trace_id(uint64_t id) { trace_id_ = id; }
  uint64_t trace_id() const { return trace_id_; }

 private:
  friend class Sink;  // the one place a journal is attached

  std::vector<Span> spans_;
  double time_offset_ = 0.0;
  /// When set, every span begin/end is also recorded as a per-peer
  /// journal event stamped with trace_id() (nothing while it is 0), which
  /// is what lets the offline assembler rebuild this tracer's tree from
  /// the journals alone (obs/sink.h attaches it).
  JournalSet* journal_ = nullptr;
  uint64_t trace_id_ = 0;
};

}  // namespace ripple::obs

#endif  // RIPPLE_OBS_TRACE_H_
