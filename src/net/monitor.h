#ifndef RIPPLE_NET_MONITOR_H_
#define RIPPLE_NET_MONITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/admin.h"
#include "net/peers.h"
#include "net/transport.h"
#include "obs/profile.h"

namespace ripple::net {

/// Knobs for one scrape pass. A probe is one kAdminStats request
/// awaiting its reply; `probe_timeout_ms` bounds each wait and
/// `probe_attempts` fresh requests are sent before an endpoint is marked
/// unhealthy — the admin plane rides the same lossy UDP as the query
/// protocol, so one silent probe is not a verdict.
struct MonitorOptions {
  int probe_timeout_ms = 250;
  int probe_attempts = 2;
};

/// One endpoint's scrape outcome. When `healthy` is false the report
/// fields keep their defaults (all zero) and the totals treat the daemon
/// as absent — a dead daemon contributes silence, not stale numbers.
struct EndpointStatus {
  Endpoint endpoint;
  PeerId probe_peer = kInvalidPeer;  // addressed peer (first assigned id)
  bool healthy = false;  // a decodable report arrived
  double rtt_ms = 0.0;   // the probe's round trip
  AdminStatsReport report;
};

/// Cluster-wide aggregation of one sample: counter sums over the healthy
/// endpoints, a windowed QPS from the previous sample's queries_served,
/// and load skew (Gini / peak-to-mean via obs::ComputeSkew) over the
/// per-endpoint queries_served distribution.
struct ClusterTotals {
  uint64_t endpoints = 0;
  uint64_t healthy = 0;
  DaemonStats stats;
  TransportCounters transport;
  QueueDepths queues;
  double qps = 0.0;
  obs::SkewStats load_skew;
};

struct ClusterSample {
  double at_ms = 0.0;
  std::vector<EndpointStatus> endpoints;
  ClusterTotals totals;
};

/// Scrapes every process of a peers file over the admin protocol. Owns
/// nothing but a borrowed Transport (UDP in production, anything in
/// tests) and a client id the daemons learn a return address for —
/// exactly the NetClient arrangement, one protocol up.
///
/// Single-threaded like every Transport owner: one thread calls Scrape /
/// WaitHealthy and nothing else touches the transport meanwhile.
class ClusterMonitor {
 public:
  ClusterMonitor(const PeersFile& peers, Transport* transport,
                 PeerId self, MonitorOptions opts = {});

  /// Probes every endpoint once for its stats report and aggregates.
  /// `at_ms` stamps the sample (caller's clock — wall ms since its
  /// series began); QPS windows against the previous Scrape.
  ClusterSample Scrape(double at_ms);

  /// Probes every endpoint until all have answered at least once or
  /// `deadline_ms` of wall time elapses. The readiness probe a
  /// deployment script wants in place of log polling: returns true only
  /// when the whole cluster is reachable.
  bool WaitHealthy(int deadline_ms);

  /// Multi-line ASCII table of one sample (one row per endpoint plus a
  /// totals line).
  static std::string Dashboard(const ClusterSample& sample);

  /// One JSON object (single line, for an append-only JSONL series).
  /// Field names match the admin JSON helpers, so the series totals are
  /// directly comparable to `serve --stats-out` reports.
  static std::string SampleToJson(const ClusterSample& sample);

 private:
  /// One request/reply round, retried up to `probe_attempts` times: sends
  /// kAdminStats to `target` and waits for a decodable report answering
  /// this probe's message id. Stale replies (from probes already given
  /// up on) and undecodable ones are drained and ignored. Returns false
  /// when no attempt got a report in time.
  bool Probe(PeerId target, AdminStatsReport* report, double* rtt_ms);

  PeersFile peers_;
  Transport* transport_;
  PeerId self_;
  MonitorOptions opts_;
  uint32_t next_seq_ = 1;
  bool has_prev_ = false;
  double prev_at_ms_ = 0.0;
  uint64_t prev_queries_ = 0;
};

}  // namespace ripple::net

#endif  // RIPPLE_NET_MONITOR_H_
