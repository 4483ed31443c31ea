// ripple_cli serve / net-bench — the live-overlay subcommands.
//
//   $ ripple_cli serve --peers-file=peers.txt --listen=127.0.0.1:9101
//   $ ripple_cli net-bench --peers-file=peers.txt --workload=default:16
//
// `serve` turns this process into one daemon of the overlay: it rebuilds
// the shared MIDAS structure from the peers file's config line, binds a
// UDP socket at --listen, and answers the rank-query protocol for the
// peers assigned to that endpoint until SIGTERM/SIGINT, then flushes its
// obs journal/profile exports and prints its counters. N processes with
// the same peers file form the whole overlay (docs/NET.md).
//
// `net-bench` drives the workload-file format from src/exec/ against the
// live overlay and gates the result: it executes the byte-identical
// query instances on an in-process LoopbackTransport simulator first,
// then over the sockets, compares answers, and emits BENCH_net.json
// (deterministic completeness/match metrics gated by tools/bench_check.py;
// wall-clock latency/QPS as informational `wall_*` metrics).

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "cache/adaptive.h"
#include "cli_commands.h"
#include "common/flags.h"
#include "common/log.h"
#include "exec/compile.h"
#include "exec/workload.h"
#include "net/admin.h"
#include "net/bootstrap.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/monitor.h"
#include "net/peers.h"
#include "net/udp_transport.h"
#include "obs/bench_report.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sink.h"
#include "obs/snapshot.h"
#include "queries/skyline_driver.h"
#include "queries/topk_driver.h"
#include "sim/async_engine.h"

#ifndef RIPPLE_GIT_SHA
#define RIPPLE_GIT_SHA "unknown"
#endif
#ifndef RIPPLE_BUILD_TYPE
#define RIPPLE_BUILD_TYPE "unknown"
#endif

namespace ripple {
namespace {

std::atomic<bool> g_stop{false};

void OnStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

/// Shared net flags: every live-overlay subcommand takes the peers file
/// and the wall-clock retry discipline.
struct NetFlags {
  std::string peers_file;
  double timeout_ms = 200.0;
  double timeout_cap_ms = 1600.0;
  int64_t max_retries = 5;
  std::string log_level;

  void Register(FlagParser* flags) {
    flags->AddString("peers-file",
                     "shared topology file: the overlay recipe plus the "
                     "peer-id -> host:port table (docs/NET.md)",
                     &peers_file);
    flags->AddDouble("timeout-ms",
                     "initial per-request patience before retransmitting",
                     &timeout_ms);
    flags->AddDouble("timeout-cap-ms", "backoff ceiling for the patience",
                     &timeout_cap_ms);
    flags->AddInt("max-retries",
                  "retransmissions before a request is abandoned",
                  &max_retries);
    flags->AddString("log-level", "error|warn|info|debug|trace", &log_level);
  }

  net::RetryOptions Retry() const {
    net::RetryOptions r;
    r.timeout = timeout_ms;
    r.timeout_cap = timeout_cap_ms;
    r.max_retries = static_cast<int>(max_retries);
    return r;
  }

  bool Finish(const Status& parse_status, const FlagParser& flags) const {
    if (!parse_status.ok()) {
      const bool help = parse_status.code() == StatusCode::kFailedPrecondition;
      std::fprintf(help ? stdout : stderr, "%s\n",
                   help ? flags.Help().c_str()
                        : parse_status.message().c_str());
      return false;
    }
    if (!log_level.empty()) {
      SetGlobalLogLevel(ParseLogLevel(log_level, GlobalLogLevel()));
    }
    if (peers_file.empty()) {
      std::fprintf(stderr, "--peers-file is required\n");
      return false;
    }
    return true;
  }
};

bool SameAnswer(const TupleVec& a, const TupleVec& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    if (a[i].key.dims() != b[i].key.dims()) return false;
    for (int d = 0; d < a[i].key.dims(); ++d) {
      if (a[i].key[d] != b[i].key[d]) return false;
    }
  }
  return true;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Result<std::vector<exec::WorkloadItem>> LoadWorkloadSpec(
    const std::string& spec) {
  if (spec == "default" || spec.rfind("default:", 0) == 0) {
    int64_t n = 16;
    if (spec.rfind("default:", 0) == 0) n = std::atoll(spec.c_str() + 8);
    if (n <= 0) {
      return Status::InvalidArgument("bad workload spec '" + spec +
                                     "' (want default:<N>, N > 0)");
    }
    return exec::DefaultWorkloadMix(static_cast<size_t>(n));
  }
  return exec::LoadWorkloadFile(spec);
}

}  // namespace

int RunServe(int argc, char** argv) {
  NetFlags net_flags;
  std::string listen;
  int64_t tick_ms = 50;
  std::string journal_out;
  std::string profile_out;
  std::string stats_out;
  std::string metrics_out;
  std::string snapshot_out;
  int64_t snapshot_every_ms = 1000;
  FlagParser flags(
      "ripple_cli serve — one live-overlay daemon: rebuilds the overlay "
      "from the peers file, serves its assigned peers over UDP until "
      "SIGTERM/SIGINT, then flushes exports and prints counters.");
  net_flags.Register(&flags);
  flags.AddString("listen",
                  "ip:port to bind; must be one of the peers file's "
                  "endpoints (selects which peers this process serves)",
                  &listen);
  flags.AddInt("tick-ms", "serve-loop poll granularity", &tick_ms);
  flags.AddString("journal-out",
                  "flush per-peer frame journals here on shutdown",
                  &journal_out);
  flags.AddString("profile-out",
                  "write this daemon's per-peer load profile here on "
                  "shutdown",
                  &profile_out);
  flags.AddString("stats-out",
                  "write the shutdown counter report as JSON here (same "
                  "fields as a kAdminStats reply)",
                  &stats_out);
  flags.AddString("metrics-out",
                  "write the net.daemon.*/net.udp.* registry as JSON "
                  "here on shutdown",
                  &metrics_out);
  flags.AddString("snapshot-out",
                  "write windowed registry snapshots here on shutdown",
                  &snapshot_out);
  flags.AddInt("snapshot-every-ms",
               "snapshot capture period (with --snapshot-out)",
               &snapshot_every_ms);
  const Status st = flags.Parse(argc, argv);
  if (!net_flags.Finish(st, flags)) {
    return st.code() == StatusCode::kFailedPrecondition ? 0 : 2;
  }
  if (listen.empty()) {
    std::fprintf(stderr, "--listen is required\n");
    return 2;
  }
  auto listen_ep = net::ParseEndpoint(listen);
  if (!listen_ep.ok()) {
    std::fprintf(stderr, "--listen: %s\n", listen_ep.status().message().c_str());
    return 2;
  }
  auto peers = net::LoadPeersFile(net_flags.peers_file);
  if (!peers.ok()) {
    std::fprintf(stderr, "%s\n", peers.status().message().c_str());
    return 2;
  }
  const std::vector<PeerId> local = peers->PeersAt(*listen_ep);
  if (local.empty()) {
    std::fprintf(stderr,
                 "endpoint %s serves no peers in %s (peers file endpoints "
                 "must match --listen exactly)\n",
                 listen_ep->ToString().c_str(), net_flags.peers_file.c_str());
    return 2;
  }

  const std::unique_ptr<MidasOverlay> overlay =
      net::BuildOverlay(peers->config);
  auto transport = net::UdpSocketTransport::Open(*peers, *listen_ep);
  if (!transport.ok()) {
    std::fprintf(stderr, "%s\n", transport.status().message().c_str());
    return 2;
  }
  net::PeerDaemon<MidasOverlay> daemon(overlay.get(), transport->get(), local,
                                       net_flags.Retry());
  obs::JournalSet journal;
  obs::Profiler profiler;
  daemon.SetSink(obs::Sink(/*tracer=*/nullptr,
                           profile_out.empty() ? nullptr : &profiler,
                           journal_out.empty() ? nullptr : &journal));
  // Always bridged: the periodic snapshots and the shutdown
  // --metrics-out/--snapshot-out exports read this registry.
  obs::Registry registry;
  daemon.SetRegistry(&registry);
  net::UdpSocketTransport* udp_ptr = transport->get();
  daemon.SetTransportCounters([udp_ptr] { return udp_ptr->Counters(); });
  obs::SnapshotSeries series(&registry);

  std::signal(SIGTERM, OnStopSignal);
  std::signal(SIGINT, OnStopSignal);
  std::printf("serving peers %u-%u at %s (%zu peers, overlay depth %d)\n",
              local.front(), local.back(),
              (*transport)->local_endpoint().ToString().c_str(), local.size(),
              overlay->MaxDepth());
  std::fflush(stdout);
  const auto serve_start = std::chrono::steady_clock::now();
  double next_snap_ms = 0.0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    daemon.ServeOnce(static_cast<int>(tick_ms));
    if (!snapshot_out.empty()) {
      const double now_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - serve_start)
              .count();
      if (now_ms >= next_snap_ms) {
        daemon.SyncRegistry();
        series.Capture(now_ms);
        next_snap_ms = now_ms + static_cast<double>(snapshot_every_ms);
      }
    }
  }

  // SIGTERM/SIGINT: flush observability, report, exit cleanly.
  if (!journal_out.empty()) {
    const Status js = journal.WriteDir(journal_out);
    if (!js.ok()) std::fprintf(stderr, "journal: %s\n", js.message().c_str());
  }
  if (!profile_out.empty()) {
    const Status ps = obs::WriteProfileJson(profiler, profile_out);
    if (!ps.ok()) std::fprintf(stderr, "profile: %s\n", ps.message().c_str());
  }
  if (!stats_out.empty()) {
    std::FILE* f = std::fopen(stats_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "stats-out: cannot open %s\n", stats_out.c_str());
    } else {
      std::fprintf(f, "%s\n",
                   net::StatsReportJson(daemon.StatsReport()).c_str());
      std::fclose(f);
    }
  }
  if (!metrics_out.empty()) {
    daemon.SyncRegistry();
    const Status ms = obs::WriteMetricsJson(registry, metrics_out, nullptr);
    if (!ms.ok()) std::fprintf(stderr, "metrics: %s\n", ms.message().c_str());
  }
  if (!snapshot_out.empty()) {
    const Status ss = obs::WriteSnapshotJson(&series, nullptr, snapshot_out);
    if (!ss.ok()) {
      std::fprintf(stderr, "snapshot: %s\n", ss.message().c_str());
    }
  }
  const net::DaemonStats& ds = daemon.stats();
  const net::UdpSocketTransport& udp = **transport;
  std::printf(
      "served %llu queries (%llu replies, %llu answers finalized, %llu "
      "child requests, %llu retransmissions)\n",
      static_cast<unsigned long long>(ds.queries_served),
      static_cast<unsigned long long>(ds.replies_sent),
      static_cast<unsigned long long>(ds.answers_finalized),
      static_cast<unsigned long long>(ds.child_requests),
      static_cast<unsigned long long>(ds.retransmissions));
  std::printf(
      "wire: %llu in / %llu out datagrams, %llu/%llu bytes; dropped: %llu "
      "malformed, %llu oversize, %llu unknown-sender, %llu misdelivered\n",
      static_cast<unsigned long long>(udp.datagrams_received),
      static_cast<unsigned long long>(udp.datagrams_sent),
      static_cast<unsigned long long>(udp.bytes_received),
      static_cast<unsigned long long>(udp.bytes_sent),
      static_cast<unsigned long long>(udp.malformed_dropped),
      static_cast<unsigned long long>(udp.oversize_dropped),
      static_cast<unsigned long long>(udp.unknown_peer_dropped),
      static_cast<unsigned long long>(ds.misdelivered));
  return 0;
}

namespace {

/// One workload item's reference (simulator) outcome.
struct ReferenceRun {
  TupleVec answer;
  bool complete = false;
};

/// Runs every instance on an in-process AsyncEngine over loopback — the
/// gold answers live results must match byte-for-byte. Items carrying
/// r=auto are resolved IN PLACE as the pass proceeds (resolve, run,
/// Observe — so each decision sees the stats of everything before it),
/// which is what lets the live pass replay the exact same parameters.
std::vector<ReferenceRun> RunReference(
    const MidasOverlay& overlay, std::vector<exec::WorkloadItem>& items,
    uint64_t seed, std::vector<std::unique_ptr<Scorer>>* scorers,
    cache::AdaptiveController* controller) {
  std::vector<ReferenceRun> out(items.size());
  exec::ForEachWorkloadInstance(
      overlay, items, seed, scorers,
      [&](size_t i, const exec::WorkloadItem&, PeerId initiator, auto query) {
        using Q = std::decay_t<decltype(query)>;
        exec::WorkloadItem& item = items[i];
        if (item.ripple.is_auto()) {
          item.ripple = controller != nullptr ? controller->Choose()
                                              : RippleParam::Fast();
        }
        auto record = [&](auto result) {
          out[i].answer = std::move(result.answer);
          out[i].complete = result.complete;
          if (controller != nullptr) controller->Observe(result.stats);
        };
        if constexpr (std::is_same_v<Q, TopKQuery>) {
          AsyncEngine<MidasOverlay, TopKPolicy> engine(&overlay, TopKPolicy{});
          QueryRequest<TopKPolicy> req;
          req.initiator = initiator;
          req.query = std::move(query);
          req.ripple = item.ripple;
          record(SeededTopK(overlay, engine, req));
        } else if constexpr (std::is_same_v<Q, SkylineQuery>) {
          AsyncEngine<MidasOverlay, SkylinePolicy> engine(&overlay,
                                                          SkylinePolicy{});
          QueryRequest<SkylinePolicy> req;
          req.initiator = initiator;
          req.query = std::move(query);
          req.ripple = item.ripple;
          record(SeededSkyline(overlay, engine, req));
        } else if constexpr (std::is_same_v<Q, SkybandQuery>) {
          AsyncEngine<MidasOverlay, SkybandPolicy> engine(&overlay,
                                                          SkybandPolicy{});
          QueryRequest<SkybandPolicy> req;
          req.initiator = initiator;
          req.query = std::move(query);
          req.ripple = item.ripple;
          record(engine.Run(req));
        } else {
          AsyncEngine<MidasOverlay, RangePolicy> engine(&overlay,
                                                        RangePolicy{});
          QueryRequest<RangePolicy> req;
          req.initiator = initiator;
          req.query = std::move(query);
          req.ripple = item.ripple;
          record(engine.Run(req));
        }
      });
  return out;
}

}  // namespace

int RunNetBench(int argc, char** argv) {
  NetFlags net_flags;
  std::string workload = "default:16";
  std::string listen = "127.0.0.1:0";
  std::string bench_out = ".";
  std::string ripple_override;
  bool show = false;
  FlagParser flags(
      "ripple_cli net-bench — wall-clock workload driver against a live "
      "overlay: runs the same query instances on an in-process simulator "
      "(LoopbackTransport) and over the sockets, compares answers "
      "byte-for-byte, and writes gated BENCH_net.json.");
  net_flags.Register(&flags);
  flags.AddString("workload", "workload file path, or default:<N>", &workload);
  flags.AddString("listen", "client bind address (port 0 = ephemeral)",
                  &listen);
  flags.AddString("bench-out", "directory receiving BENCH_net.json",
                  &bench_out);
  flags.AddString("ripple",
                  "override every workload item's r: fast | slow | auto | "
                  "<hops>. 'auto' resolves through the adaptive controller "
                  "during the simulator pass, and the live pass replays the "
                  "identical resolved parameters (docs/CACHING.md)",
                  &ripple_override);
  flags.AddBool("show", "print one line per query", &show);
  const Status st = flags.Parse(argc, argv);
  if (!net_flags.Finish(st, flags)) {
    return st.code() == StatusCode::kFailedPrecondition ? 0 : 2;
  }
  auto peers = net::LoadPeersFile(net_flags.peers_file);
  if (!peers.ok()) {
    std::fprintf(stderr, "%s\n", peers.status().message().c_str());
    return 2;
  }
  auto listen_ep = net::ParseEndpoint(listen);
  if (!listen_ep.ok()) {
    std::fprintf(stderr, "--listen: %s\n", listen_ep.status().message().c_str());
    return 2;
  }
  auto items = LoadWorkloadSpec(workload);
  if (!items.ok()) {
    std::fprintf(stderr, "--workload: %s\n", items.status().message().c_str());
    return 2;
  }

  const net::NetConfig& config = peers->config;
  const std::unique_ptr<MidasOverlay> overlay = net::BuildOverlay(config);
  std::printf("net-bench: %s over %zu peers in %zu processes, %zu queries\n",
              config.dataset.c_str(), overlay->NumPeers(),
              peers->Processes().size(), items->size());

  if (!ripple_override.empty()) {
    const Result<RippleParam> rp = RippleParam::Parse(ripple_override);
    if (!rp.ok()) {
      std::fprintf(stderr, "--ripple: %s\n", rp.status().message().c_str());
      return 2;
    }
    for (exec::WorkloadItem& item : *items) item.ripple = *rp;
  }
  const bool any_auto = std::any_of(
      items->begin(), items->end(),
      [](const exec::WorkloadItem& it) { return it.ripple.is_auto(); });
  cache::AdaptiveController controller(
      cache::DepthHint(overlay->NumPeers()));

  // Phase 1: the simulator reference (identical instances by seed).
  // Resolves any r=auto in place, so phase 2 replays the same parameters.
  std::vector<std::unique_ptr<Scorer>> scorers;
  const std::vector<ReferenceRun> reference = RunReference(
      *overlay, *items, config.seed, &scorers, any_auto ? &controller : nullptr);
  if (any_auto) {
    std::printf("ripple=auto resolved per item (%s)\n",
                controller.Summary().c_str());
  }

  // Phase 2: the same instances against the live overlay. The client
  // replica runs the seeded drivers' analytic bootstrap (route + seed
  // walk) before addressing the serving peer, exactly as the simulator's
  // drivers do, so answers depend on the same (start, seed, query, r).
  auto transport = net::UdpSocketTransport::Open(*peers, *listen_ep);
  if (!transport.ok()) {
    std::fprintf(stderr, "%s\n", transport.status().message().c_str());
    return 2;
  }
  net::NetClient<MidasOverlay> client(overlay.get(), transport->get(),
                                      net::kClientIdBase | 1,
                                      net_flags.Retry());
  scorers.clear();
  uint64_t completed = 0;
  uint64_t mismatches = 0;
  std::vector<double> latencies_ms;
  const auto bench_start = std::chrono::steady_clock::now();
  exec::ForEachWorkloadInstance(
      *overlay, *items, config.seed, &scorers,
      [&](size_t i, const exec::WorkloadItem& item, PeerId initiator,
          auto query) {
        using Q = std::decay_t<decltype(query)>;
        const int64_t r = item.ripple.hops();
        auto outcome = [&] {
          if constexpr (std::is_same_v<Q, TopKQuery>) {
            TopKPolicy policy;
            uint64_t hops = 0;
            const PeerId start = overlay->RouteFrom(
                initiator, query.scorer->Peak(overlay->domain()), &hops);
            const TopKState seed =
                TopKSeedWalk(*overlay, policy, query, start, nullptr);
            return client.Execute(policy, query, start, r, seed);
          } else if constexpr (std::is_same_v<Q, SkylineQuery>) {
            SkylinePolicy policy;
            const Point corner = query.constraint.has_value()
                                     ? query.constraint->lo()
                                     : overlay->domain().lo();
            uint64_t hops = 0;
            const PeerId start = overlay->RouteFrom(initiator, corner, &hops);
            return client.Execute(policy, query, start, r,
                                  policy.InitialGlobalState(query));
          } else if constexpr (std::is_same_v<Q, SkybandQuery>) {
            SkybandPolicy policy;
            return client.Execute(policy, query, initiator, r,
                                  policy.InitialGlobalState(query));
          } else {
            RangePolicy policy;
            return client.Execute(policy, query, initiator, r,
                                  policy.InitialGlobalState(query));
          }
        }();
        const bool match =
            outcome.complete && SameAnswer(outcome.answer, reference[i].answer);
        completed += outcome.complete ? 1 : 0;
        mismatches += (outcome.complete && !match) ? 1 : 0;
        if (outcome.complete) latencies_ms.push_back(outcome.latency_ms);
        if (show || !outcome.complete || !match) {
          std::printf("  [%zu] %s complete=%s match=%s tuples=%zu "
                      "latency=%.2fms attempts=%d\n",
                      i, exec::WorkloadKindName(item.kind),
                      outcome.complete ? "true" : "false",
                      match ? "true" : "false", outcome.answer.size(),
                      outcome.latency_ms, outcome.attempts);
        }
      });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  const net::UdpSocketTransport& udp = **transport;
  const double p50 = Percentile(latencies_ms, 0.50);
  const double p99 = Percentile(latencies_ms, 0.99);
  const double qps = wall_s > 0 ? static_cast<double>(items->size()) / wall_s
                                : 0.0;
  std::printf(
      "net-bench: %llu/%zu complete, %llu mismatches | p50=%.2fms "
      "p99=%.2fms qps=%.1f | client wire: %llu bytes out, %llu bytes in\n",
      static_cast<unsigned long long>(completed), items->size(),
      static_cast<unsigned long long>(mismatches), p50, p99, qps,
      static_cast<unsigned long long>(udp.bytes_sent),
      static_cast<unsigned long long>(udp.bytes_received));

  // Post-run admin scrape: the cluster's own account of the run. On a
  // clean localhost run nothing is rejected or dropped and the daemons'
  // answers_finalized agrees with the client's completed count — all
  // gated below via bench_check.py's monitor rules. Counters are
  // process-lifetime, so the gated values assume fresh daemons (the
  // tools/net_demo.sh arrangement).
  const net::Endpoint mon_ep{listen_ep->host, 0};
  auto mon_transport = net::UdpSocketTransport::Open(*peers, mon_ep);
  if (!mon_transport.ok()) {
    std::fprintf(stderr, "monitor: %s\n",
                 mon_transport.status().message().c_str());
    return 2;
  }
  net::ClusterMonitor monitor(*peers, mon_transport->get(),
                              net::kClientIdBase | 2, {});
  const net::ClusterSample scrape = monitor.Scrape(wall_s * 1000.0);
  std::fputs(net::ClusterMonitor::Dashboard(scrape).c_str(), stdout);
  const uint64_t mon_unhealthy =
      scrape.totals.endpoints - scrape.totals.healthy;
  const uint64_t mon_transport_dropped =
      scrape.totals.transport.malformed_dropped +
      scrape.totals.transport.oversize_dropped +
      scrape.totals.transport.unknown_peer_dropped;

  obs::BenchMeta meta;
  meta.suite = "net";
  meta.binary = "net-bench";
  meta.git_sha = RIPPLE_GIT_SHA;
  meta.build_type = RIPPLE_BUILD_TYPE;
  meta.seed = config.seed;
  meta.config = {
      {"peers", static_cast<double>(config.peers)},
      {"dims", static_cast<double>(config.dims)},
      {"tuples", static_cast<double>(config.tuples)},
      {"queries", static_cast<double>(items->size())},
      {"processes", static_cast<double>(peers->Processes().size())},
  };
  obs::BenchReporter reporter(meta);
  // Deterministic (gated): a live overlay must complete every query with
  // the simulator's exact answers, whatever the wall clock did. The
  // reporter prefixes case ids with meta.binary, so "live" lands as
  // "net-bench/live".
  reporter.AddMetric("live", "queries", static_cast<double>(items->size()));
  reporter.AddMetric("live", "completed", static_cast<double>(completed));
  reporter.AddMetric("live", "answer_mismatch",
                     static_cast<double>(mismatches));
  // Monitor soundness counters (gated, deterministic on a clean run):
  // every endpoint scraped, nothing rejected or dropped anywhere in the
  // cluster, and the daemons' own answer count agrees with the client's.
  reporter.AddMetric("live", "mon_endpoints",
                     static_cast<double>(scrape.totals.endpoints));
  reporter.AddMetric("live", "mon_unhealthy",
                     static_cast<double>(mon_unhealthy));
  reporter.AddMetric("live", "mon_frames_rejected",
                     static_cast<double>(scrape.totals.stats.frames_rejected));
  reporter.AddMetric("live", "mon_transport_dropped",
                     static_cast<double>(mon_transport_dropped));
  reporter.AddMetric("live", "mon_answers_finalized",
                     static_cast<double>(
                         scrape.totals.stats.answers_finalized));
  reporter.AddMetric("live", "mon_queries_served",
                     static_cast<double>(scrape.totals.stats.queries_served));
  // Retransmissions are timing-dependent (a slow box acks late), so they
  // ride under the informational prefix.
  reporter.AddMetric("live", "wall_mon_retransmissions",
                     static_cast<double>(
                         scrape.totals.stats.retransmissions));
  // Wall-clock (informational `wall_` prefix, tools/bench_check.py).
  reporter.AddMetric("live", "wall_latency_p50_ms", p50);
  reporter.AddMetric("live", "wall_latency_p99_ms", p99);
  reporter.AddMetric("live", "wall_qps", qps);
  reporter.AddMetric("live", "wall_client_bytes",
                     static_cast<double>(udp.bytes_sent + udp.bytes_received));
  const Status ws = reporter.WriteMerged(bench_out);
  if (!ws.ok()) {
    std::fprintf(stderr, "bench-out: %s\n", ws.message().c_str());
    return 2;
  }
  std::printf("wrote %s\n",
              obs::BenchReporter::FilePath(bench_out, "net").c_str());
  const bool ok = completed == items->size() && mismatches == 0;
  if (!ok) {
    std::fprintf(stderr,
                 "net-bench FAILED: incomplete or mismatched answers\n");
  }
  return ok ? 0 : 1;
}

}  // namespace ripple
