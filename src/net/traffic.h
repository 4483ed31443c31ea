#ifndef RIPPLE_NET_TRAFFIC_H_
#define RIPPLE_NET_TRAFFIC_H_

#include <cstdint>
#include <string>

namespace ripple::net {

/// Measured bytes-on-wire of one query execution, split by message kind.
/// The per-kind sums mirror QueryStats::bytes_on_wire's charging rule
/// (bytes charged at the sender, exactly where messages are charged), so
/// `total()` equals the query's bytes_on_wire.
struct WireTraffic {
  uint64_t bytes_query = 0;
  uint64_t bytes_response = 0;
  uint64_t bytes_answer = 0;
  uint64_t bytes_ack = 0;
  /// Frames charged to the query (one per message; a response bundle of n
  /// states counts n frames).
  uint64_t frames = 0;
  /// Received datagrams that failed to decode (corruption on the wire);
  /// always 0 on a loopback transport. Truncation (not enough bytes to
  /// back the header or its declared payload) counts separately in
  /// frames_truncated; frames_rejected covers the semantic rejections
  /// (bad version, bad tag, payload decode failure).
  uint64_t frames_rejected = 0;
  uint64_t frames_truncated = 0;

  uint64_t total() const {
    return bytes_query + bytes_response + bytes_answer + bytes_ack;
  }

  WireTraffic& operator+=(const WireTraffic& o) {
    bytes_query += o.bytes_query;
    bytes_response += o.bytes_response;
    bytes_answer += o.bytes_answer;
    bytes_ack += o.bytes_ack;
    frames += o.frames;
    frames_rejected += o.frames_rejected;
    frames_truncated += o.frames_truncated;
    return *this;
  }

  std::string ToString() const;
};

/// Records one execution's traffic into the global metrics registry under
/// `net.bytes_*` / `net.frames_*` (the counters ripple_cli run --metrics-out
/// exports). No-op unless obs::Registry::EnableGlobal(true) was called —
/// same contract as RecordCoverageMetrics.
void RecordTrafficMetrics(const WireTraffic& t);

}  // namespace ripple::net

#endif  // RIPPLE_NET_TRAFFIC_H_
