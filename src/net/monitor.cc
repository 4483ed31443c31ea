#include "net/monitor.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "net/protocol.h"
#include "wire/buffer.h"

namespace ripple::net {
namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

}  // namespace

ClusterMonitor::ClusterMonitor(const PeersFile& peers, Transport* transport,
                               PeerId self, MonitorOptions opts)
    : peers_(peers), transport_(transport), self_(self), opts_(opts) {}

bool ClusterMonitor::Probe(PeerId target, AdminStatsReport* report,
                           double* rtt_ms) {
  for (int attempt = 0; attempt < opts_.probe_attempts; ++attempt) {
    const uint64_t id = MakeMessageId(self_, next_seq_++);
    const Envelope env{id, self_, target, MessageKind::kAdminStats, attempt,
                       {}};
    wire::Buffer buf;
    const size_t start = BeginEnvelopeFrame(env, &buf);
    wire::EndFrame(&buf, start);
    const SteadyClock::time_point sent = SteadyClock::now();
    transport_->Send(env, buf.Take());
    for (;;) {
      const double waited = MsSince(sent);
      const int left =
          opts_.probe_timeout_ms - static_cast<int>(waited);
      if (left <= 0) break;  // this attempt timed out
      Datagram d;
      if (!transport_->Poll(&d, left)) break;
      // Only a decodable reply to this probe counts; anything else (a
      // stale reply from an abandoned attempt, a misrouted frame, a
      // report this build cannot read) is drained.
      if (d.env.id != id || d.env.kind != MessageKind::kAdminStats) continue;
      wire::Reader r(d.bytes);
      Envelope echo;
      if (!DecodeEnvelopeFrame(&r, &echo) || !DecodeStatsReport(&r, report) ||
          r.remaining() != 0) {
        continue;
      }
      if (rtt_ms != nullptr) *rtt_ms = MsSince(sent);
      return true;
    }
  }
  return false;
}

ClusterSample ClusterMonitor::Scrape(double at_ms) {
  ClusterSample sample;
  sample.at_ms = at_ms;
  std::vector<uint64_t> loads;
  for (const Endpoint& ep : peers_.Processes()) {
    EndpointStatus es;
    es.endpoint = ep;
    const std::vector<PeerId> assigned = peers_.PeersAt(ep);
    es.probe_peer = assigned.empty() ? kInvalidPeer : assigned.front();
    sample.totals.endpoints += 1;
    if (es.probe_peer == kInvalidPeer) {
      sample.endpoints.push_back(std::move(es));
      continue;
    }
    // A silent endpoint keeps an all-zero report, so a dead daemon
    // contributes silence, not stale or half-decoded numbers.
    AdminStatsReport report;
    es.healthy = Probe(es.probe_peer, &report, &es.rtt_ms);
    if (es.healthy) {
      es.report = report;
      sample.totals.healthy += 1;
      AddInto(&sample.totals.stats, es.report.stats);
      AddInto(&sample.totals.transport, es.report.transport);
      AddInto(&sample.totals.queues, es.report.queues);
      loads.push_back(es.report.stats.queries_served);
    }
    sample.endpoints.push_back(std::move(es));
  }
  sample.totals.load_skew = obs::ComputeSkew(loads);
  if (has_prev_ && sample.at_ms > prev_at_ms_ &&
      sample.totals.stats.queries_served >= prev_queries_) {
    const double window_s = (sample.at_ms - prev_at_ms_) / 1000.0;
    sample.totals.qps = static_cast<double>(
                            sample.totals.stats.queries_served -
                            prev_queries_) /
                        window_s;
  }
  has_prev_ = true;
  prev_at_ms_ = sample.at_ms;
  prev_queries_ = sample.totals.stats.queries_served;
  return sample;
}

bool ClusterMonitor::WaitHealthy(int deadline_ms) {
  const SteadyClock::time_point t0 = SteadyClock::now();
  std::vector<Endpoint> processes = peers_.Processes();
  std::vector<bool> up(processes.size(), false);
  for (;;) {
    size_t healthy = 0;
    for (size_t i = 0; i < processes.size(); ++i) {
      if (up[i]) {
        healthy += 1;
        continue;
      }
      const std::vector<PeerId> assigned = peers_.PeersAt(processes[i]);
      if (assigned.empty()) continue;
      AdminStatsReport report;
      if (Probe(assigned.front(), &report, nullptr)) {
        up[i] = true;
        healthy += 1;
      }
    }
    if (healthy == processes.size()) return true;
    if (MsSince(t0) >= deadline_ms) return false;
  }
}

std::string ClusterMonitor::Dashboard(const ClusterSample& sample) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "cluster @%.0fms: %llu/%llu healthy, qps=%.1f gini=%.3f "
                "peak/mean=%.2f\n",
                sample.at_ms,
                static_cast<unsigned long long>(sample.totals.healthy),
                static_cast<unsigned long long>(sample.totals.endpoints),
                sample.totals.qps, sample.totals.load_skew.gini,
                sample.totals.load_skew.peak_to_mean);
  out += line;
  std::snprintf(line, sizeof(line),
                "  %-21s %-7s %8s %8s %8s %8s %8s %8s\n", "endpoint", "state",
                "rtt_ms", "queries", "answers", "retrans", "rejects",
                "open");
  out += line;
  for (const EndpointStatus& es : sample.endpoints) {
    if (!es.healthy) {
      std::snprintf(line, sizeof(line), "  %-21s %-7s %8s\n",
                    es.endpoint.ToString().c_str(), "DOWN", "-");
      out += line;
      continue;
    }
    std::snprintf(
        line, sizeof(line),
        "  %-21s %-7s %8.2f %8llu %8llu %8llu %8llu %8llu\n",
        es.endpoint.ToString().c_str(), "up", es.rtt_ms,
        static_cast<unsigned long long>(es.report.stats.queries_served),
        static_cast<unsigned long long>(es.report.stats.answers_finalized),
        static_cast<unsigned long long>(es.report.stats.retransmissions),
        static_cast<unsigned long long>(es.report.stats.frames_rejected),
        static_cast<unsigned long long>(es.report.queues.open_sessions));
    out += line;
  }
  const TransportCounters& t = sample.totals.transport;
  std::snprintf(line, sizeof(line),
                "  wire: %llu in / %llu out datagrams; dropped: %llu "
                "malformed, %llu oversize, %llu unknown-sender\n",
                static_cast<unsigned long long>(t.datagrams_received),
                static_cast<unsigned long long>(t.datagrams_sent),
                static_cast<unsigned long long>(t.malformed_dropped),
                static_cast<unsigned long long>(t.oversize_dropped),
                static_cast<unsigned long long>(t.unknown_peer_dropped));
  out += line;
  return out;
}

std::string ClusterMonitor::SampleToJson(const ClusterSample& sample) {
  char head[64];
  std::snprintf(head, sizeof(head), "{\"at_ms\":%.3f,\"endpoints\":[",
                sample.at_ms);
  std::string out = head;
  bool first = true;
  for (const EndpointStatus& es : sample.endpoints) {
    if (!first) out += ",";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"endpoint\":\"%s\",\"healthy\":%s,\"rtt_ms\":%.3f",
                  es.endpoint.ToString().c_str(),
                  es.healthy ? "true" : "false", es.rtt_ms);
    out += buf;
    if (es.healthy) {
      out += ",\"report\":" + StatsReportJson(es.report);
    }
    out += "}";
  }
  out += "],\"totals\":{";
  char tot[160];
  std::snprintf(tot, sizeof(tot),
                "\"endpoints\":%llu,\"healthy\":%llu,\"qps\":%.3f,"
                "\"gini\":%.6f,\"peak_to_mean\":%.6f,",
                static_cast<unsigned long long>(sample.totals.endpoints),
                static_cast<unsigned long long>(sample.totals.healthy),
                sample.totals.qps, sample.totals.load_skew.gini,
                sample.totals.load_skew.peak_to_mean);
  out += tot;
  out += "\"stats\":" + DaemonStatsJson(sample.totals.stats);
  out += ",\"transport\":" + TransportCountersJson(sample.totals.transport);
  out += ",\"queues\":" + QueueDepthsJson(sample.totals.queues);
  out += "}}";
  return out;
}

}  // namespace ripple::net
