#include "net/coverage.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace ripple::net {

namespace {

/// Sorted-set union used for the peer lists (both sides are sorted and
/// deduplicated by construction).
std::vector<PeerId> MergePeers(const std::vector<PeerId>& a,
                               const std::vector<PeerId>& b) {
  std::vector<PeerId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

void Append(std::string* s, const char* name, uint64_t v) {
  if (v == 0) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%llu", name,
                static_cast<unsigned long long>(v));
  *s += buf;
}

}  // namespace

bool Coverage::quiet() const {
  return retries == 0 && timeouts == 0 && messages_lost == 0 &&
         messages_duplicated == 0 && duplicates_suppressed == 0 &&
         acks == 0 && late_responses == 0 && crash_drops == 0 &&
         links_unresolved == 0 && answers_lost == 0;
}

Coverage& Coverage::operator+=(const Coverage& o) {
  retries += o.retries;
  timeouts += o.timeouts;
  messages_lost += o.messages_lost;
  messages_duplicated += o.messages_duplicated;
  duplicates_suppressed += o.duplicates_suppressed;
  acks += o.acks;
  late_responses += o.late_responses;
  crash_drops += o.crash_drops;
  links_unresolved += o.links_unresolved;
  answers_lost += o.answers_lost;
  unreachable_peers = MergePeers(unreachable_peers, o.unreachable_peers);
  crashed_peers = MergePeers(crashed_peers, o.crashed_peers);
  return *this;
}

std::string Coverage::ToString() const {
  std::string out;
  if (complete()) {
    out = "complete";
  } else {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "partial(links=%llu answers_lost=%llu unreachable=%zu)",
                  static_cast<unsigned long long>(links_unresolved),
                  static_cast<unsigned long long>(answers_lost),
                  unreachable_peers.size());
    out = buf;
  }
  Append(&out, "retries", retries);
  Append(&out, "timeouts", timeouts);
  Append(&out, "lost", messages_lost);
  Append(&out, "dup", messages_duplicated);
  Append(&out, "dedup", duplicates_suppressed);
  Append(&out, "acks", acks);
  Append(&out, "late", late_responses);
  Append(&out, "crash_drops", crash_drops);
  Append(&out, "crashed", crashed_peers.size());
  return out;
}

void RecordCoverageMetrics(const Coverage& c) {
  if (!obs::Registry::GlobalEnabled()) return;
  // Looked up once: the registry never erases an instrument.
  struct Counters {
    obs::Registry& reg = obs::Registry::Global();
    obs::Counter& retries = reg.GetCounter("net.retry.count");
    obs::Counter& timeouts = reg.GetCounter("net.timeout.count");
    obs::Counter& lost = reg.GetCounter("net.loss.count");
    obs::Counter& duplicated = reg.GetCounter("net.dup.injected");
    obs::Counter& suppressed = reg.GetCounter("net.dup.suppressed");
    obs::Counter& acks = reg.GetCounter("net.ack.count");
    obs::Counter& late = reg.GetCounter("net.late.responses");
    obs::Counter& crash_drops = reg.GetCounter("net.crash.drops");
    obs::Counter& crash_peers = reg.GetCounter("net.crash.peers");
    obs::Counter& unresolved = reg.GetCounter("net.link.unresolved");
    obs::Counter& answers_lost = reg.GetCounter("net.answer.lost");
  };
  static Counters k;
  k.retries.Inc(c.retries);
  k.timeouts.Inc(c.timeouts);
  k.lost.Inc(c.messages_lost);
  k.duplicated.Inc(c.messages_duplicated);
  k.suppressed.Inc(c.duplicates_suppressed);
  k.acks.Inc(c.acks);
  k.late.Inc(c.late_responses);
  k.crash_drops.Inc(c.crash_drops);
  k.crash_peers.Inc(c.crashed_peers.size());
  k.unresolved.Inc(c.links_unresolved);
  k.answers_lost.Inc(c.answers_lost);
  // Each outcome's counter appears once a query has it.
  if (c.complete()) {
    static obs::Counter& complete =
        obs::Registry::Global().GetCounter("net.query.complete");
    complete.Inc();
  } else {
    static obs::Counter& partial =
        obs::Registry::Global().GetCounter("net.query.partial");
    partial.Inc();
  }
}

}  // namespace ripple::net
