// Traced-run instruments. Everything here wraps the library from outside:
// a policy subclass that hides each QueryPolicy method behind a timed
// forward, an engine adapter that the seeded drivers (SeededTopK,
// SeededSkyline) accept in place of an engine, and a loopback transport
// that times Send. None of them changes what the wrapped code computes;
// the benchmark asserts that by comparing exact counters and answers
// between an untraced and a traced pass over the same queries.
//
// Timing is self time: every timed call is a Scope on a per-thread stack,
// and a scope's own layer receives its duration minus the durations of
// the scopes nested inside it. Summed over layers, the self times of one
// query add up to the query's outermost scope.

#ifndef RIPPLEBENCH_TRACE_H_
#define RIPPLEBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "ripple/api.h"
#include "store/local_store.h"
#include "wire/buffer.h"

namespace ripplebench {

/// The layers a traced query's time is split into. Names follow the
/// library's source modules.
enum Layer : int {
  kJob,        // the job body around the driver (engine set-up, results)
  kBootstrap,  // overlay: route to the start peer and the top-k seed walk
  kRipple,     // the recursive Engine's own code
  kSim,        // the AsyncEngine's own code (event queue, timers, sessions)
  kLocal,      // queries: ComputeLocalState, ComputeLocalAnswer
  kMerge,      // queries: global state, state/answer merges, finalize
  kPrune,      // queries: IsLinkRelevant, LinkPriority
  kEncode,     // wire: policy encoders
  kDecode,     // wire: policy decoders
  kSend,       // net: LoopbackTransport::Send
  kNumLayers
};

/// One worker's accumulated trace. Written only by the thread bound to it.
struct LayerSlot {
  std::array<double, kNumLayers> self_ns{};
  double run_ns = 0;  // time inside Engine::Run / AsyncEngine::Run
  uint64_t links_tested = 0;
  uint64_t links_pruned = 0;
  uint64_t bytes_encoded = 0;
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;

  void Add(const LayerSlot& o) {
    for (int i = 0; i < kNumLayers; ++i) self_ns[i] += o.self_ns[i];
    run_ns += o.run_ns;
    links_tested += o.links_tested;
    links_pruned += o.links_pruned;
    bytes_encoded += o.bytes_encoded;
    frames_sent += o.frames_sent;
    bytes_sent += o.bytes_sent;
  }
};

/// The slot the calling thread records into; null outside a traced job.
inline thread_local LayerSlot* tls_slot = nullptr;

class Scope;
inline thread_local Scope* tls_scope = nullptr;

using Clock = std::chrono::steady_clock;

inline double NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Times one call into a layer and books its self time.
class Scope {
 public:
  explicit Scope(Layer layer)
      : layer_(layer), parent_(tls_scope), start_(Clock::now()) {
    tls_scope = this;
  }
  ~Scope() {
    const double total = NsBetween(start_, Clock::now());
    if (tls_slot != nullptr) tls_slot->self_ns[layer_] += total - child_ns_;
    if (parent_ != nullptr) parent_->child_ns_ += total;
    tls_scope = parent_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Layer layer_;
  Scope* parent_;
  Clock::time_point start_;
  double child_ns_ = 0;
};

/// Binds the calling thread to `slot` for the lifetime of the object.
class BindSlot {
 public:
  explicit BindSlot(LayerSlot* slot) : saved_(tls_slot) { tls_slot = slot; }
  ~BindSlot() { tls_slot = saved_; }
  BindSlot(const BindSlot&) = delete;
  BindSlot& operator=(const BindSlot&) = delete;

 private:
  LayerSlot* saved_;
};

/// A query policy whose every QueryPolicy method is a timed forward to
/// the base policy. Engines call policy methods on their static Policy
/// type, so name hiding is enough: no virtual dispatch is involved.
template <typename P>
class Timed : public P {
 public:
  using Query = typename P::Query;
  using LocalState = typename P::LocalState;
  using GlobalState = typename P::GlobalState;
  using Answer = typename P::Answer;
  static_assert(std::is_same_v<LocalState, GlobalState>,
                "one EncodeState/DecodeState overload covers both states");

  GlobalState InitialGlobalState(const Query& q) const {
    Scope s(kMerge);
    return P::InitialGlobalState(q);
  }
  LocalState ComputeLocalState(const ripple::LocalStore& store,
                               const Query& q, const GlobalState& g) const {
    Scope s(kLocal);
    return P::ComputeLocalState(store, q, g);
  }
  GlobalState ComputeGlobalState(const Query& q, const GlobalState& g,
                                 const LocalState& l) const {
    Scope s(kMerge);
    return P::ComputeGlobalState(q, g, l);
  }
  void MergeLocalStates(const Query& q, LocalState* mine,
                        const std::vector<LocalState>& received) const {
    Scope s(kMerge);
    P::MergeLocalStates(q, mine, received);
  }
  Answer ComputeLocalAnswer(const ripple::LocalStore& store, const Query& q,
                            const LocalState& l) const {
    Scope s(kLocal);
    return P::ComputeLocalAnswer(store, q, l);
  }
  template <typename Area>
  bool IsLinkRelevant(const Query& q, const GlobalState& g,
                      const Area& area) const {
    Scope s(kPrune);
    const bool relevant = P::IsLinkRelevant(q, g, area);
    if (tls_slot != nullptr) {
      tls_slot->links_tested += 1;
      if (!relevant) tls_slot->links_pruned += 1;
    }
    return relevant;
  }
  template <typename Area>
  double LinkPriority(const Query& q, const Area& area) const {
    Scope s(kPrune);
    return P::LinkPriority(q, area);
  }
  size_t StateTupleCount(const LocalState& l) const {
    Scope s(kMerge);
    return P::StateTupleCount(l);
  }
  size_t GlobalStateTupleCount(const GlobalState& g) const {
    Scope s(kMerge);
    return P::GlobalStateTupleCount(g);
  }
  size_t AnswerTupleCount(const Answer& a) const {
    Scope s(kMerge);
    return P::AnswerTupleCount(a);
  }
  void MergeAnswer(Answer* acc, Answer&& local, const Query& q) const {
    Scope s(kMerge);
    P::MergeAnswer(acc, std::move(local), q);
  }
  void FinalizeAnswer(Answer* acc, const Query& q) const {
    Scope s(kMerge);
    P::FinalizeAnswer(acc, q);
  }

  void EncodeQuery(const Query& q, ripple::wire::Buffer* buf) const {
    Encoding e(buf);
    P::EncodeQuery(q, buf);
  }
  bool DecodeQuery(ripple::wire::Reader* r, Query* out) const {
    Scope s(kDecode);
    return P::DecodeQuery(r, out);
  }
  void EncodeState(const LocalState& st, ripple::wire::Buffer* buf) const {
    Encoding e(buf);
    P::EncodeState(st, buf);
  }
  bool DecodeState(ripple::wire::Reader* r, LocalState* out) const {
    Scope s(kDecode);
    return P::DecodeState(r, out);
  }
  void EncodeAnswer(const Answer& a, ripple::wire::Buffer* buf) const {
    Encoding e(buf);
    P::EncodeAnswer(a, buf);
  }
  bool DecodeAnswer(ripple::wire::Reader* r, Answer* out) const {
    Scope s(kDecode);
    return P::DecodeAnswer(r, out);
  }

 private:
  /// An encode scope that also counts the bytes the encoder appended.
  class Encoding {
   public:
    explicit Encoding(ripple::wire::Buffer* buf)
        : buf_(buf), before_(buf->size()), scope_(kEncode) {}
    ~Encoding() {
      if (tls_slot != nullptr) {
        tls_slot->bytes_encoded += buf_->size() - before_;
      }
    }
    Encoding(const Encoding&) = delete;
    Encoding& operator=(const Encoding&) = delete;

   private:
    ripple::wire::Buffer* buf_;
    size_t before_;
    Scope scope_;
  };
};

/// Stands in for an engine wherever the drivers take one (SeededTopK and
/// SeededSkyline read `Result`, `policy()`, `tracer()`, `journal()` and
/// call `Run`). Requests arrive typed for the base policy `P` and are
/// rebound to the wrapped engine's Timed<P>; Run is timed under `layer`,
/// so driver time outside Run is what the bootstrap scope keeps.
template <typename EngineT, typename P>
class TracedEngine {
 public:
  using Result = typename EngineT::Result;

  TracedEngine(const EngineT* engine, Layer layer)
      : engine_(engine), layer_(layer) {}

  decltype(auto) policy() const { return engine_->policy(); }
  auto* tracer() const { return engine_->tracer(); }
  auto* journal() const { return engine_->journal(); }

  Result Run(const ripple::QueryRequest<P>& request) const {
    ripple::QueryRequest<Timed<P>> rebound;
    rebound.initiator = request.initiator;
    rebound.query = request.query;
    rebound.ripple = request.ripple;
    rebound.initial_state = request.initial_state;
    rebound.deadline = request.deadline;
    rebound.retry = request.retry;
    rebound.fault = request.fault;
    rebound.trace_id = request.trace_id;
    const Clock::time_point t0 = Clock::now();
    Result result;
    {
      Scope s(layer_);
      result = engine_->Run(rebound);
    }
    if (tls_slot != nullptr) tls_slot->run_ns += NsBetween(t0, Clock::now());
    return result;
  }

 private:
  const EngineT* engine_;
  Layer layer_;
};

/// The default loopback wire with Send timed. Delivery stays synchronous
/// and unchanged, so the simulated clock and every byte are the same.
class TimedLoopback : public ripple::net::LoopbackTransport {
 public:
  void Send(const ripple::net::Envelope& env,
            std::vector<uint8_t> datagram) override {
    Scope s(kSend);
    ripple::net::LoopbackTransport::Send(env, std::move(datagram));
  }
};

}  // namespace ripplebench

#endif  // RIPPLEBENCH_TRACE_H_
