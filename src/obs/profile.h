#ifndef RIPPLE_OBS_PROFILE_H_
#define RIPPLE_OBS_PROFILE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ripple::obs {

/// What one peer did while queries ran through it. The counters mirror
/// the QueryStats cost model (messages/tuples are charged at the sender,
/// exactly where stats.messages is charged), so summing a field across
/// peers cross-checks the per-query accounting; on top of that the
/// profiler adds what QueryStats cannot express: WHERE the load landed,
/// retransmission pressure, per-peer fan-out and real CPU time.
struct PeerLoad {
  /// Query activations handled (engine visits / async sessions). The sum
  /// over peers equals QueryStats::peers_visited summed over queries.
  uint64_t spans = 0;
  /// Messages received: query forwards, state responses, answers, acks.
  uint64_t messages_in = 0;
  /// Messages sent. The sum over peers equals QueryStats::messages.
  uint64_t messages_out = 0;
  /// Tuples carried by messages this peer received / sent. The sent sum
  /// equals QueryStats::tuples_shipped.
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  /// Bytes of encoded wire frames this peer received / sent (docs/WIRE.md).
  /// Charged alongside messages_in/out; the sent sum equals
  /// QueryStats::bytes_on_wire summed over queries.
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  /// Retransmissions this peer issued (fault layer; 0 on perfect nets).
  uint64_t retransmissions = 0;
  /// High-water mark of simultaneously outstanding forwards at this peer
  /// (fast phase: relevant links contacted at once; slow phase: 1).
  uint64_t queue_depth_hwm = 0;
  /// Point-routing hops forwarded through this peer (overlay bootstrap
  /// traffic: joins, seeded initiations).
  uint64_t route_hops = 0;
  /// Wall-clock CPU spent in policy code attributed to this peer, via
  /// ScopedTimer on a steady clock. The seed only counted logical hops;
  /// this is the real-time cost of the local computations.
  uint64_t cpu_ns = 0;

  PeerLoad& operator+=(const PeerLoad& o);
};

/// Distribution summary of one load metric across peers — the paper's
/// congestion metric reports the mean; these expose the skew the mean
/// hides (Figures 4-12 argue about load distributions, not scalars).
struct SkewStats {
  size_t peers = 0;        // peers the profiler tracked (incl. idle)
  size_t active = 0;       // peers with a non-zero value
  uint64_t total = 0;
  double mean = 0.0;       // total / peers
  uint64_t max = 0;
  uint32_t max_peer = 0;   // arg-max peer id
  /// max/mean; 1.0 = perfectly balanced, >> 1 = hotspots. 0 when idle.
  double peak_to_mean = 0.0;
  /// Gini coefficient in [0, 1): 0 = all peers equally loaded, -> 1 as
  /// the load concentrates on a vanishing fraction of peers.
  double gini = 0.0;
  double idle_fraction = 0.0;

  std::string ToString() const;
};

/// Computes SkewStats over a dense per-peer load vector (index == peer).
SkewStats ComputeSkew(const std::vector<uint64_t>& loads);

/// One row of the hotspot table: a peer and its full load record.
struct Hotspot {
  uint32_t peer = 0;
  PeerLoad load;
};

/// Per-peer load accounting across one or many query executions.
///
/// Not thread-safe by itself (one profiler per query stream, like
/// Tracer); the *feeding* counters in metrics.h are atomic so a future
/// threaded engine can keep one Profiler per worker and Merge() them.
/// All record paths are no-ops through a null pointer test at the call
/// sites, so an unattached profiler costs nothing.
class Profiler {
 public:
  /// Peer ids are dense (vector-backed overlays), so loads are a dense
  /// vector too; it grows on demand.
  void OnSpan(uint32_t peer) { At(peer).spans += 1; }
  void OnMessage(uint32_t from, uint32_t to, uint64_t tuples,
                 uint64_t bytes = 0) {
    OnMessageOut(from, tuples, bytes);
    OnMessageIn(to, tuples, bytes);
  }
  /// One-sided charges, for edges whose other end is not an overlay peer
  /// (e.g. a live client's synthetic id — indexing it into the dense
  /// per-peer vector would try to allocate 2^31 PeerLoad slots).
  void OnMessageOut(uint32_t from, uint64_t tuples, uint64_t bytes = 0) {
    PeerLoad& f = At(from);
    f.messages_out += 1;
    f.tuples_out += tuples;
    f.bytes_out += bytes;
  }
  void OnMessageIn(uint32_t to, uint64_t tuples, uint64_t bytes = 0) {
    PeerLoad& t = At(to);
    t.messages_in += 1;
    t.tuples_in += tuples;
    t.bytes_in += bytes;
  }
  void OnRetransmission(uint32_t peer) { At(peer).retransmissions += 1; }
  void OnQueueDepth(uint32_t peer, uint64_t depth) {
    PeerLoad& l = At(peer);
    if (depth > l.queue_depth_hwm) l.queue_depth_hwm = depth;
  }
  void OnRouteHop(uint32_t from, uint32_t to) {
    At(from).route_hops += 1;
    OnMessage(from, to, 0);
  }
  void AddCpuNs(uint32_t peer, uint64_t ns) { At(peer).cpu_ns += ns; }

  /// Declares `peers` tracked even if idle, so idle_fraction and Gini
  /// denominators cover the whole overlay, not just touched peers.
  void SetPeerUniverse(size_t peers) {
    if (peers > loads_.size()) loads_.resize(peers);
  }

  size_t peer_count() const { return loads_.size(); }
  const PeerLoad& load(uint32_t peer) const;
  const std::vector<PeerLoad>& loads() const { return loads_; }

  /// Aggregates every tracked peer into one PeerLoad.
  PeerLoad Totals() const;

  /// Skew of one metric across all tracked peers, e.g.
  /// `profiler.Skew(&PeerLoad::spans)`.
  SkewStats Skew(uint64_t PeerLoad::* field) const;

  /// The `n` most loaded peers by `field`, descending (ties by peer id).
  std::vector<Hotspot> TopN(uint64_t PeerLoad::* field, size_t n) const;

  void Merge(const Profiler& other);
  void Clear() { loads_.clear(); }

  /// Human-readable skew table (spans / messages / cpu), for logs.
  std::string Summary() const;

  /// Process-wide profiler the overlay routers feed (bootstrap routing
  /// happens deep inside Join()/SeededTopK where no engine profiler is
  /// in scope). Off unless EnableGlobal(true); the disabled hot path is
  /// one relaxed atomic load, same contract as Registry::Global().
  static Profiler& Global();
  static bool GlobalEnabled() {
    return g_global_enabled.load(std::memory_order_relaxed);
  }
  static void EnableGlobal(bool on) {
    g_global_enabled.store(on, std::memory_order_relaxed);
  }

  /// Serializes feeds into Global() (the dense PeerLoad vector resizes;
  /// it cannot be atomic). Executor workers route bootstrap traffic
  /// concurrently, so the routing hook locks this; per-engine profilers
  /// stay single-threaded by construction and never take it.
  static std::mutex& GlobalMutex();

 private:
  PeerLoad& At(uint32_t peer) {
    if (peer >= loads_.size()) loads_.resize(peer + 1);
    return loads_[peer];
  }

  static std::atomic<bool> g_global_enabled;
  std::vector<PeerLoad> loads_;
};

/// Charges wall-clock time on a steady clock to one peer's cpu_ns for
/// the scope's lifetime. A null profiler disarms it (no clock reads).
class ScopedTimer {
 public:
  ScopedTimer(Profiler* profiler, uint32_t peer)
      : profiler_(profiler), peer_(peer) {
    if (profiler_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (profiler_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_);
      profiler_->AddCpuNs(peer_, static_cast<uint64_t>(ns.count()));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Profiler* profiler_;
  uint32_t peer_;
  std::chrono::steady_clock::time_point start_{};
};

/// Hook for the overlays' point-routing loops: one forwarding hop
/// `from -> to`. Feeds the global profiler; no-op unless enabled.
inline void RecordRouteStep(uint32_t from, uint32_t to) {
  if (!Profiler::GlobalEnabled()) return;
  std::lock_guard<std::mutex> lock(Profiler::GlobalMutex());
  Profiler::Global().OnRouteHop(from, to);
}

// Declared in obs/metrics.h; re-declared here so RouteRecorder stays
// header-only without dragging the metrics registry into every router.
void RecordRouteHops(const char* overlay, uint64_t hops);

/// The bootstrap-routing observability pattern shared by all overlay
/// routers (MIDAS, CAN, Chord, BATON): record every forwarding hop into
/// the gated global profiler and the caller's optional `path`, then the
/// hop total on arrival. Routing loops read
///
///   current = rec.Step(current, next);   // one forward
///   ...
///   return rec.Arrive(current, hops);    // destination reached
class RouteRecorder {
 public:
  /// `overlay` tags the metrics ("<overlay>.route.*"); `path` (optional)
  /// receives the forwarding peers in order, destination excluded.
  RouteRecorder(const char* overlay, std::vector<uint32_t>* path)
      : overlay_(overlay), path_(path) {}

  /// Records the hop `from -> to` and returns `to`.
  uint32_t Step(uint32_t from, uint32_t to) {
    if (path_ != nullptr) path_->push_back(from);
    RecordRouteStep(from, to);
    ++hops_;
    return to;
  }

  /// Reports the completed route: writes the hop count through `hops`
  /// (when provided) and into the global metrics, returns the destination.
  uint32_t Arrive(uint32_t at, uint64_t* hops) const {
    if (hops != nullptr) *hops = hops_;
    RecordRouteHops(overlay_, hops_);
    return at;
  }

  uint64_t hops() const { return hops_; }

 private:
  const char* overlay_;
  std::vector<uint32_t>* path_;
  uint64_t hops_ = 0;
};

}  // namespace ripple::obs

#endif  // RIPPLE_OBS_PROFILE_H_
