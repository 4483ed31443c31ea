// ripple_cli monitor — live cluster scraper over the admin protocol.
//
//   $ ripple_cli monitor --peers-file=peers.txt --count=5 --interval-ms=1000
//   $ ripple_cli monitor --peers-file=peers.txt --wait-healthy-ms=5000
//
// Resolves the peers file, probes every daemon endpoint once for its
// stats report (per-probe timeouts and retries), marks non-responders
// unhealthy, and prints an ASCII dashboard per sample. --series-out
// appends one JSON object per sample to a JSONL file whose cluster
// totals use the exact field names of `serve --stats-out`, so a series'
// final totals are directly comparable to the daemons' shutdown reports.
// --wait-healthy-ms turns the command into a readiness probe: it exits 0
// as soon as every endpoint answers the probe, 1 if the deadline passes —
// the deployment-script replacement for polling daemon logs.

#include <csignal>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cli_commands.h"
#include "common/flags.h"
#include "common/log.h"
#include "net/monitor.h"
#include "net/peers.h"
#include "net/protocol.h"
#include "net/udp_transport.h"

namespace ripple {
namespace {

std::atomic<bool> g_monitor_stop{false};

void OnMonitorSignal(int) {
  g_monitor_stop.store(true, std::memory_order_relaxed);
}

}  // namespace

int RunMonitor(int argc, char** argv) {
  std::string peers_file;
  std::string listen = "127.0.0.1:0";
  std::string series_out;
  std::string log_level;
  int64_t interval_ms = 1000;
  int64_t count = 0;
  int64_t probe_timeout_ms = 250;
  int64_t probe_attempts = 2;
  int64_t wait_healthy_ms = 0;
  bool quiet = false;
  FlagParser flags(
      "ripple_cli monitor — scrapes every daemon of a live overlay over "
      "the admin protocol (one stats probe each), prints an ASCII "
      "dashboard per sample and appends a JSONL time series.");
  flags.AddString("peers-file",
                  "shared topology file naming the daemon endpoints "
                  "(docs/NET.md)",
                  &peers_file);
  flags.AddString("listen", "monitor bind address (port 0 = ephemeral)",
                  &listen);
  flags.AddInt("interval-ms", "delay between samples", &interval_ms);
  flags.AddInt("count", "samples to take (0 = until SIGINT/SIGTERM)",
               &count);
  flags.AddInt("probe-timeout-ms", "per-probe reply patience",
               &probe_timeout_ms);
  flags.AddInt("probe-attempts",
               "probes per endpoint before it is marked unhealthy",
               &probe_attempts);
  flags.AddInt("wait-healthy-ms",
               "readiness mode: probe until every endpoint answers, exit "
               "0/1 (no scraping)",
               &wait_healthy_ms);
  flags.AddString("series-out", "append one JSON object per sample here",
                  &series_out);
  flags.AddBool("quiet", "suppress the dashboard (series/exit code only)",
                &quiet);
  flags.AddString("log-level", "error|warn|info|debug|trace", &log_level);
  const Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    const bool help = st.code() == StatusCode::kFailedPrecondition;
    std::fprintf(help ? stdout : stderr, "%s\n",
                 help ? flags.Help().c_str() : st.message().c_str());
    return help ? 0 : 2;
  }
  if (!log_level.empty()) {
    SetGlobalLogLevel(ParseLogLevel(log_level, GlobalLogLevel()));
  }
  if (peers_file.empty()) {
    std::fprintf(stderr, "--peers-file is required\n");
    return 2;
  }
  auto peers = net::LoadPeersFile(peers_file);
  if (!peers.ok()) {
    std::fprintf(stderr, "%s\n", peers.status().message().c_str());
    return 2;
  }
  auto listen_ep = net::ParseEndpoint(listen);
  if (!listen_ep.ok()) {
    std::fprintf(stderr, "--listen: %s\n",
                 listen_ep.status().message().c_str());
    return 2;
  }
  auto transport = net::UdpSocketTransport::Open(*peers, *listen_ep);
  if (!transport.ok()) {
    std::fprintf(stderr, "%s\n", transport.status().message().c_str());
    return 2;
  }

  net::MonitorOptions opts;
  opts.probe_timeout_ms = static_cast<int>(probe_timeout_ms);
  opts.probe_attempts = static_cast<int>(probe_attempts);
  // Client id 2: distinct from net-bench's driver (kClientIdBase | 1) so
  // a daemon can serve queries and probes to different return addresses.
  net::ClusterMonitor monitor(*peers, transport->get(),
                              net::kClientIdBase | 2, opts);

  if (wait_healthy_ms > 0) {
    const bool up = monitor.WaitHealthy(static_cast<int>(wait_healthy_ms));
    if (!quiet) {
      std::printf("monitor: cluster %s (%zu endpoints)\n",
                  up ? "healthy" : "NOT healthy within deadline",
                  peers->Processes().size());
    }
    return up ? 0 : 1;
  }

  std::FILE* series = nullptr;
  if (!series_out.empty()) {
    series = std::fopen(series_out.c_str(), "a");
    if (series == nullptr) {
      std::fprintf(stderr, "--series-out: cannot open %s\n",
                   series_out.c_str());
      return 2;
    }
  }
  std::signal(SIGTERM, OnMonitorSignal);
  std::signal(SIGINT, OnMonitorSignal);

  const auto t0 = std::chrono::steady_clock::now();
  int exit_code = 0;
  for (int64_t i = 0; count == 0 || i < count; ++i) {
    if (g_monitor_stop.load(std::memory_order_relaxed)) break;
    if (i > 0) {
      // Sleep in small slices so a signal ends the series promptly.
      const auto wake = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(interval_ms);
      while (std::chrono::steady_clock::now() < wake &&
             !g_monitor_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (g_monitor_stop.load(std::memory_order_relaxed)) break;
    }
    const double at_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    const net::ClusterSample sample = monitor.Scrape(at_ms);
    if (!quiet) {
      std::fputs(net::ClusterMonitor::Dashboard(sample).c_str(), stdout);
      std::fflush(stdout);
    }
    if (series != nullptr) {
      std::fprintf(series, "%s\n",
                   net::ClusterMonitor::SampleToJson(sample).c_str());
      std::fflush(series);
    }
    if (sample.totals.healthy != sample.totals.endpoints) exit_code = 1;
  }
  if (series != nullptr) std::fclose(series);
  return exit_code;
}

}  // namespace ripple
