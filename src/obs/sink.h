#ifndef RIPPLE_OBS_SINK_H_
#define RIPPLE_OBS_SINK_H_

#include <cstdint>

#include "net/envelope.h"
#include "net/peers.h"
#include "obs/journal.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace ripple::obs {

/// The one observability input of the engines, the protocol core's
/// drivers, the live daemon and executor jobs: the tracer, profiler and
/// journal to record into (each optional, none owned), and the events
/// they emit, each routed here to the instruments that see it. Inline and
/// non-virtual: an event with nothing attached costs a pointer test, and
/// none allocates beyond what its instrument records.
class Sink {
 public:
  Sink() = default;
  /// Attaches `journal` to `tracer`: every span the tracer records from
  /// then on, including the bootstrap spans a seeded driver records
  /// straight through it, is mirrored into the journal under the
  /// tracer's trace id (nothing while that id is 0, i.e. unsampled).
  Sink(Tracer* tracer, Profiler* profiler, JournalSet* journal)
      : tracer_(tracer), profiler_(profiler), journal_(journal) {
    if (tracer_ != nullptr) tracer_->journal_ = journal_;
  }

  Tracer* tracer() const { return tracer_; }
  Profiler* profiler() const { return profiler_; }
  JournalSet* journal() const { return journal_; }

  /// What a query with head-sampling decision `trace_id` records into in
  /// the simulator: frame events reach the journal only when it was
  /// sampled. The tracer's mirroring already follows its own trace id.
  Sink Sampled(uint64_t trace_id) const {
    Sink s = *this;
    if (trace_id == 0) s.journal_ = nullptr;
    return s;
  }

  /// A query starts: spans it records carry `trace_id`.
  void BeginQuery(uint64_t trace_id) const {
    if (tracer_ != nullptr) tracer_->set_trace_id(trace_id);
  }

  /// One activation of the procedure at `peer` (`r > 0`: slow phase).
  /// Returns its span, or kNoSpan when nothing traces.
  uint32_t BeginVisit(uint32_t peer, uint32_t parent, int r,
                      double now) const {
    if (profiler_ != nullptr) profiler_->OnSpan(peer);
    if (tracer_ == nullptr) return kNoSpan;
    return tracer_->StartSpan(peer, parent,
                              r > 0 ? SpanKind::kSlow : SpanKind::kFast, r,
                              now);
  }
  /// The open span `id`, for filling its counters; nullptr when nothing
  /// traces.
  Span* span(uint32_t id) const {
    return tracer_ != nullptr && id != kNoSpan ? &tracer_->span(id) : nullptr;
  }
  void EndVisit(uint32_t id, double now) const {
    if (tracer_ != nullptr && id != kNoSpan) tracer_->EndSpan(id, now);
  }

  /// One frame charged at its sender `from`, exactly where QueryStats
  /// charges it. A live client receiver is not an overlay peer, so only
  /// the sender side is charged for it.
  void Charge(uint32_t from, uint32_t to, uint64_t tuples, uint64_t bytes,
              bool retransmit = false) const {
    if (profiler_ == nullptr) return;
    profiler_->OnMessageOut(from, tuples, bytes);
    if (!net::IsClientId(to)) profiler_->OnMessageIn(to, tuples, bytes);
    if (retransmit) profiler_->OnRetransmission(from);
  }
  void Retransmission(uint32_t peer) const {
    if (profiler_ != nullptr) profiler_->OnRetransmission(peer);
  }
  /// Forwards outstanding at once at `peer`.
  void QueueDepth(uint32_t peer, uint64_t depth) const {
    if (profiler_ != nullptr) profiler_->OnQueueDepth(peer, depth);
  }
  /// Times policy code run on behalf of `peer` for the scope's lifetime.
  ScopedTimer PolicyCpu(uint32_t peer) const {
    return ScopedTimer(profiler_, peer);
  }

  /// One frame-level event in `peer`'s journal, stamped with the acting
  /// driver's clock.
  void Frame(JournalEventKind kind, uint32_t peer, const net::Envelope& env,
             uint64_t bytes, double now) const {
    if (journal_ == nullptr) return;
    JournalEvent e;
    e.kind = kind;
    e.peer = peer;
    e.sim_time = now;
    e.trace_id = env.trace.trace_id;
    e.msg_id = env.id;
    e.msg_kind = static_cast<uint8_t>(env.kind);
    e.parent_span = env.trace.parent_span;
    e.bytes = bytes;
    e.attempt = env.attempt;
    journal_->Record(e);
  }

 private:
  Tracer* tracer_ = nullptr;
  Profiler* profiler_ = nullptr;
  JournalSet* journal_ = nullptr;
};

}  // namespace ripple::obs

#endif  // RIPPLE_OBS_SINK_H_
